/**
 * @file
 * Bottleneck service identification (paper §4).
 *
 * The identifier ingests the per-hop latency statistics reported by
 * completed queries, keeps a moving window of queuing/serving samples
 * per instance, and scores every live instance with a pluggable metric.
 * The PowerChief metric (Eq. 1) combines historical statistics with the
 * realtime queue length:
 *
 *     LatencyMetric(Iᵢ) = Lᵢ × q̄ᵢ + s̄ᵢ
 *
 * Table 1's history-only alternatives are provided for the metric
 * ablation study.
 */

#ifndef PC_CORE_BOTTLENECK_H
#define PC_CORE_BOTTLENECK_H

#include <memory>

#include "app/pipeline.h"
#include "core/dense_ids.h"
#include "core/snapshot.h"
#include "stats/window.h"

namespace pc {

/** Scores an instance snapshot; larger = more of a bottleneck. */
class BottleneckMetric
{
  public:
    virtual ~BottleneckMetric() = default;
    virtual const char *name() const = 0;
    virtual double score(const InstanceSnapshot &s) const = 0;

    /**
     * Whether score() reads the p99 fields of its snapshot. rank()
     * computes those two quantiles per instance only when this is true;
     * otherwise they stay 0.
     */
    virtual bool readsTailQuantiles() const { return false; }
};

/** Eq. 1: Lᵢ × q̄ᵢ + s̄ᵢ — history plus realtime load. */
class PowerChiefMetric : public BottleneckMetric
{
  public:
    const char *name() const override { return "powerchief"; }

    double
    score(const InstanceSnapshot &s) const override
    {
        return static_cast<double>(s.queueLength) * s.avgQueuingSec +
            s.avgServingSec;
    }
};

/** Table 1 row: average queuing time q̄ᵢ. */
class AvgQueuingMetric : public BottleneckMetric
{
  public:
    const char *name() const override { return "avg-queuing"; }
    double
    score(const InstanceSnapshot &s) const override
    {
        return s.avgQueuingSec;
    }
};

/** Table 1 row: average serving time s̄ᵢ. */
class AvgServingMetric : public BottleneckMetric
{
  public:
    const char *name() const override { return "avg-serving"; }
    double
    score(const InstanceSnapshot &s) const override
    {
        return s.avgServingSec;
    }
};

/** Table 1 row: average processing delay q̄ᵢ + s̄ᵢ. */
class AvgProcessingMetric : public BottleneckMetric
{
  public:
    const char *name() const override { return "avg-processing"; }
    double
    score(const InstanceSnapshot &s) const override
    {
        return s.avgQueuingSec + s.avgServingSec;
    }
};

/** Table 1 row: 99th-percentile processing delay tqᵢ + tsᵢ. */
class TailProcessingMetric : public BottleneckMetric
{
  public:
    const char *name() const override { return "p99-processing"; }
    double
    score(const InstanceSnapshot &s) const override
    {
        return s.p99QueuingSec + s.p99ServingSec;
    }

    bool readsTailQuantiles() const override { return true; }
};

class BottleneckIdentifier
{
  public:
    /**
     * @param windowSpan moving-window length for q̄/s̄ statistics.
     * @param metric scoring function; defaults to the PowerChief metric.
     */
    explicit BottleneckIdentifier(
        SimTime windowSpan,
        std::unique_ptr<BottleneckMetric> metric = nullptr);

    /** Feed one completed query's hop records (called per report). */
    void observe(SimTime now, const Query &query);

    /** Feed hop records directly (wire-decoded reports). */
    void observe(SimTime now, const std::vector<HopRecord> &hops);

    /**
     * Snapshot and score every live instance of @p app, sorted ascending
     * by metric (back() is the bottleneck). Instances whose last report
     * is older than the stale window are skipped (see setStaleWindow);
     * the skip list is available via lastStaleSkips() until the next
     * rank() call.
     */
    SortedSnapshots rank(SimTime now, const MultiStageApp &app);

    /**
     * rank() into @p out, reusing its capacity: the per-interval form,
     * which allocates nothing once @p out has held every instance.
     */
    void rankInto(SimTime now, const MultiStageApp &app,
                  SortedSnapshots &out);

    /**
     * Degraded-telemetry guard: skip from the ranking any instance that
     * has reported at least once but not within @p window — its moving
     * averages are frozen, and boosting/withdrawing on frozen numbers
     * misallocates power. Instances that have never reported (fresh
     * clones) are still ranked, seeded from the stage aggregate. Zero
     * (the default) disables the guard.
     */
    void setStaleWindow(SimTime window) { staleWindow_ = window; }
    SimTime staleWindow() const { return staleWindow_; }

    /** One instance excluded from the last rank() as stale. */
    struct StaleSkip
    {
        std::int64_t instanceId = 0;
        int stageIndex = 0;
        double ageSec = 0.0; ///< time since the instance last reported
    };

    /** Instances skipped by the most recent rank() call. */
    const std::vector<StaleSkip> &lastStaleSkips() const
    {
        return staleSkips_;
    }

    /** Cumulative stale skips across all rank() calls. */
    std::uint64_t staleSkipsTotal() const { return staleSkipsTotal_; }

    /** Convenience: the bottleneck snapshot, if any instance exists. */
    InstanceSnapshot bottleneck(SimTime now, const MultiStageApp &app);

    const BottleneckMetric &metric() const { return *metric_; }

    /**
     * Realized-delay proxy for @p stage over its aggregate window: the
     * worst queuing sample plus the mean serving time (seconds) — the
     * quantity Eq. 2/3 predict for the worst-queued query. 0 when the
     * stage has no samples. Read-only: never evicts, so calling it
     * cannot perturb the statistics rank() computes (the audit layer
     * must stay a pure observer).
     */
    double stageRealizedDelaySec(int stage) const;

    /**
     * @p n queuing-plus-serving delay quantiles of @p stage over its
     * aggregate window (seconds), all zeros when the stage has no
     * samples: one pass over each underlying window for all of them,
     * since the health taps read p95 and p99 together every control
     * interval. Read-only like stageRealizedDelaySec — never evicts —
     * so the controller-health taps stay pure observers.
     */
    void stageDelayQuantiles(int stage, const double *qs, double *out,
                             std::size_t n) const;

    /**
     * Drop state for instances that no longer exist. Allocates nothing
     * once the scratch tables cover every instance.
     */
    void garbageCollect(const MultiStageApp &app);

  private:
    struct InstanceStats
    {
        MovingWindow queuing;
        MovingWindow serving;

        explicit InstanceStats(SimTime span)
            : queuing(span), serving(span)
        {
        }
    };

    /** Grow the local-id-indexed tables to cover @p local. */
    void ensureInstanceTables(std::int32_t local);
    /** Feed one hop record (both observe() forms). */
    void observeHop(SimTime now, const HopRecord &hop);

    SimTime span_;
    std::unique_ptr<BottleneckMetric> metric_;

    // Per-instance state lives in dense vectors indexed by the local
    // id remap: the per-hop hot path resolves the raw id ONCE and then
    // indexes contiguous tables, instead of one hash lookup per table
    // (see core/dense_ids.h). A slot's windows are reset (not erased)
    // by garbageCollect — raw ids are never reused, so slots are
    // bounded by the run's total instance launches.
    DenseIdMap ids_;
    std::vector<InstanceStats> perInstance_; // by local id
    std::vector<SimTime> lastReport_;        // by local id
    std::vector<std::uint8_t> reported_;     // by local id: has data

    // Stage-level aggregate used to seed brand-new instances that have
    // no history of their own yet (e.g. a fresh clone); stage indexes
    // are small and dense already.
    std::vector<InstanceStats> perStage_;
    /** stageDelayQuantiles' serving-window results, reused. */
    mutable std::vector<double> servingQs_;

    // Per-interval scratch reused by rankInto/garbageCollect.
    std::vector<ServiceInstance *> instScratch_;
    std::vector<std::uint8_t> liveScratch_; // by local id

    // Stale-window guard state.
    SimTime staleWindow_;
    std::vector<StaleSkip> staleSkips_;
    std::uint64_t staleSkipsTotal_ = 0;
};

} // namespace pc

#endif // PC_CORE_BOTTLENECK_H
