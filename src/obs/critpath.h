/**
 * @file
 * Causal critical-path reconstruction and bottleneck-efficacy scoring.
 *
 * Every completed query carries its extended hop records (app/query.h):
 * per-stage timestamps, per-shard fan-out linkage, serving-frequency
 * context and wasted-segment annotations from the fault layer. This
 * module rebuilds each query's execution DAG from those records,
 * extracts the critical path (the slowest shard through every
 * fan-out/fan-in), and segments the path into queue, serve,
 * re-dispatch and wasted time per stage. Two products fall out:
 *
 *  1. Deterministic per-run profiles — per-stage critical-path share
 *     (mean/p50/p95/p99 across queries), segment totals, and the top-K
 *     path signatures — exported via --critpath-out JSON (schema
 *     "powerchief-critpath-v1", byte-identical at any sweep --jobs).
 *
 *  2. Controller scoring — per control interval the stage dominating
 *     the critical paths of the queries completing in that window is
 *     compared against the stage(s) the policy actually boosted:
 *     agreement rate, `misboost` audit records when every boost missed
 *     the dominant stage, and the realized critical-path shortening
 *     across each boosted interval.
 *
 * Like the trace sink and the audit log, the collector is a pure
 * observer: nothing in the control plane reads it, and its outputs are
 * functions of the scenario alone.
 */

#ifndef PC_OBS_CRITPATH_H
#define PC_OBS_CRITPATH_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"
#include "stats/percentile.h"

namespace pc {

class AuditLog;
class Gauge;
class MetricsRegistry;
class Query;

/** The critical path of one query, segmented per stage. */
struct CritPathBreakdown
{
    struct StageSegment
    {
        int stage = -1;
        /** Time waiting in queue before the completing service. */
        double queueSec = 0.0;
        /** Service time of the critical (slowest completing) hop. */
        double serveSec = 0.0;
        /** Service lost to crash-aborted hops at this stage. */
        double wastedSec = 0.0;
        /** Wait between the crash and the adopting peer's service. */
        double redispatchSec = 0.0;
        /** Shard fan-out width of the critical hop (0 = not sharded). */
        int shardCount = 0;
        /** The critical hop ran on a boosted instance. */
        bool boosted = false;
        /** Frequency (MHz) the critical hop was served at. */
        int servedMhz = 0;

        double totalSec() const
        {
            return queueSec + serveSec + wastedSec + redispatchSec;
        }
    };

    std::vector<StageSegment> segments; // stage order
    double endToEndSec = 0.0;
    /** Stage with the largest critical-path total (ties: lowest). */
    int dominantStage = -1;
    /** Canonical path signature, e.g. "s0>s1x8>s2" ("!" = wasted). */
    std::string signature;
};

/**
 * Rebuild the critical path of @p query from its hop records. Pure
 * function, exposed for tests; queries with no completed hop produce
 * an empty breakdown.
 */
CritPathBreakdown critPathOf(const Query &query);

/**
 * Aggregates critical-path breakdowns across a run and scores the
 * controller per interval. Owned by the Telemetry bundle when
 * --critpath-out (or in-memory collection) asks for it.
 */
class CritPathCollector
{
  public:
    /**
     * @param audit destination for misboost records (may be disabled).
     * @param metrics when non-null, per-interval critpath gauges are
     *        registered so the timeseries recorder samples them;
     *        nullptr keeps flags-off metric dumps byte-identical.
     * @param keepShareSamples retain every per-stage share for the
     *        share_p50/p95/p99 of toJson(); collect-only runs, which
     *        read the share means alone, pass false.
     */
    explicit CritPathCollector(AuditLog *audit = nullptr,
                               MetricsRegistry *metrics = nullptr,
                               bool keepShareSamples = true);

    /**
     * Feed one completed query. @p afterWarmup gates the run-level
     * profile (shares, signatures); interval scoring always sees the
     * query because the controller acted on it either way.
     */
    void observeQuery(SimTime now, const Query &query, bool afterWarmup);

    /**
     * Close one control interval: determine the dominant stage of the
     * queries completing since the previous call, score it against
     * @p boostedStages (the stages the policy boosted this interval),
     * emit a misboost audit record when all boosts missed, and track
     * realized shortening across boosted intervals.
     */
    void onControlInterval(SimTime now,
                           const std::vector<int> &boostedStages);

    // --- Run-level summary (RunResult::critpath) ---
    std::uint64_t profiledQueries() const { return profiled_; }
    std::uint64_t intervals() const { return intervals_; }
    /** Intervals with at least one completion (scoreable). */
    std::uint64_t scoredIntervals() const { return scored_; }
    /** Scored intervals whose dominant stage was boosted. */
    std::uint64_t agreeIntervals() const { return agree_; }
    /** Intervals with at least one boost. */
    std::uint64_t boostIntervals() const { return boostIntervals_; }
    std::uint64_t misboosts() const { return misboosts_; }
    /** agree / scored; 0 when nothing was scoreable. */
    double agreementRate() const;
    /** Mean relative critical-path shortening after boosted
     *  intervals, percent (positive = paths got shorter). */
    double meanShorteningPct() const;
    /** The mean's numerator and denominator. */
    double shorteningSumPct() const { return shorteningSumPct_; }
    std::uint64_t shorteningCount() const { return shorteningCount_; }
    /** Per stage (index = stage): the summed critical-path share over
     *  the profiled queries and the paths through the stage, the
     *  numerator and denominator of its mean share. */
    struct StageShareTotals
    {
        std::vector<double> shareSum;
        std::vector<std::uint64_t> paths;

        bool operator==(const StageShareTotals &) const = default;
    };
    StageShareTotals stageShareTotals() const;

    /**
     * The whole profile as one JSON value (schema above). panic()s on
     * a collector built without share samples once it holds a path.
     */
    JsonValue toJson(const std::string &scenario) const;

    /** Write toJson() with a trailing newline. */
    void writeJson(std::ostream &out, const std::string &scenario) const;

  private:
    struct StageProfile
    {
        /** Profiled paths through this stage. */
        std::uint64_t paths = 0;
        /** Every share; empty unless keepShareSamples_. */
        ExactPercentile share;
        double shareSum = 0.0;
        double queueSec = 0.0;
        double serveSec = 0.0;
        double wastedSec = 0.0;
        double redispatchSec = 0.0;
        std::uint64_t dominant = 0;
        std::uint64_t boostedHops = 0;
        double mhzSum = 0.0;
        std::uint64_t mhzCount = 0;
    };

    struct IntervalRecord
    {
        std::uint64_t interval = 0;
        SimTime t;
        std::uint64_t queries = 0;
        int dominantStage = -1;
        double dominantShare = 0.0;
        double meanCritSec = 0.0;
        std::vector<int> boostedStages;
        bool agree = false;
        bool misboost = false;
    };

    AuditLog *audit_;
    MetricsRegistry *metrics_;
    bool keepShareSamples_;
    Gauge *dominantGauge_ = nullptr;
    Gauge *agreementGauge_ = nullptr;
    Gauge *meanCritGauge_ = nullptr;

    // Run-level profile (post-warmup queries).
    std::uint64_t profiled_ = 0;
    std::map<int, StageProfile> stages_;
    std::map<std::string, std::uint64_t> signatures_;

    // Current-interval accumulators (all completions).
    std::map<int, double> intervalStageSec_;
    std::uint64_t intervalQueries_ = 0;
    double intervalCritSec_ = 0.0;

    // Controller scoring.
    std::uint64_t intervals_ = 0;
    std::uint64_t scored_ = 0;
    std::uint64_t agree_ = 0;
    std::uint64_t boostIntervals_ = 0;
    std::uint64_t misboosts_ = 0;
    /** Mean critical path of the last boosted interval, pending the
     *  next interval's mean for the shortening measurement (0 = none). */
    double pendingBoostMeanSec_ = 0.0;
    double shorteningSumPct_ = 0.0;
    std::uint64_t shorteningCount_ = 0;
    std::vector<IntervalRecord> intervalLog_;
};

} // namespace pc

#endif // PC_OBS_CRITPATH_H
