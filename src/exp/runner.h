/**
 * @file
 * Builds a scenario's full system — one node stack (chip, bus,
 * application, command center, load generator) per node group on the
 * sharded engine, a single-node scenario being a one-group run — runs
 * it, and collects the metrics the paper reports: average and
 * 99th-percentile end-to-end latency, average power (via the RAPL
 * readout), and optional runtime traces (instance counts, per-instance
 * frequency, windowed latency/power) for the Fig. 11/13/14
 * reproductions.
 */

#ifndef PC_EXP_RUNNER_H
#define PC_EXP_RUNNER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "exp/scenario.h"
#include "obs/slo.h"
#include "stats/attribution.h"
#include "stats/timeseries.h"

namespace pc {

struct TelemetryConfig;
class AuditLog;
class ControlPolicy;
class CritPathCollector;
class MultiStageApp;
class PowerBudget;
struct ClusterDecision;

/**
 * The policy factory: instantiate the scenario's PolicyKind with its
 * scenario-derived knobs (fixed stage, QoS target, CuttleSys instance
 * cap). Shared by the runner and the cross-policy invariant tests.
 */
std::unique_ptr<ControlPolicy> makePolicyFor(const Scenario &sc);

/** Mean queuing/serving decomposition of one stage (paper §2.3). */
struct StageBreakdown
{
    double avgQueuingSec = 0.0;
    double avgServingSec = 0.0;
    std::uint64_t hops = 0;

    double total() const { return avgQueuingSec + avgServingSec; }

    /** Share of the stage's processing delay spent queuing. */
    double
    queuingShare() const
    {
        const double t = total();
        return t > 0.0 ? avgQueuingSec / t : 0.0;
    }
};

/**
 * Summary of the run's decision-audit log (populated when audit
 * collection is enabled; see ExperimentRunner's collectAudit).
 */
struct RunAuditSummary
{
    bool collected = false;

    /** Prediction error of the scored boost decisions (§ audit docs). */
    double mapePct = 0.0;
    double mapeFreqPct = 0.0;
    double mapeInstPct = 0.0;
    std::uint64_t scored = 0;
    std::uint64_t flips = 0;

    /** Record counts by decision kind. */
    std::uint64_t selects = 0;
    std::uint64_t recycles = 0;
    std::uint64_t withdraws = 0;
    std::uint64_t staleSkips = 0;
    /** FastCap/CuttleSys interval-plan records. */
    std::uint64_t plans = 0;
    /** Misboost records (critical-path scoring; obs/critpath.h). */
    std::uint64_t misboosts = 0;
    /** Cluster-arbiter rebalance records (cluster/arbiter.h). */
    std::uint64_t clusterRebalances = 0;

    /** The MAPE numerators: summed absolute percent error of the scored
     *  selects, overall (over `scored`) and per chosen technique. */
    double absPctErrSum = 0.0;
    double absPctErrSumFreq = 0.0;
    double absPctErrSumInst = 0.0;
    /** Scored selects per chosen technique (the per-kind denominators). */
    std::uint64_t scoredFreq = 0;
    std::uint64_t scoredInst = 0;

    /**
     * Fold one node's summary in: counts and sums add, and the means are
     * recomputed from them. Exact, so folding one summary into an empty
     * one reproduces it bit for bit.
     */
    void merge(const RunAuditSummary &node);
};

/**
 * Summary of the run's critical-path profile (populated when critpath
 * collection is enabled; see ExperimentRunner's collectCritPath).
 */
struct RunCritPathSummary
{
    bool collected = false;

    /** Post-warmup queries profiled into the run-level shares. */
    std::uint64_t queries = 0;
    /** Control intervals with at least one completion (scoreable). */
    std::uint64_t scoredIntervals = 0;
    /** Scored intervals whose dominant stage was boosted. */
    std::uint64_t agreeIntervals = 0;
    /** Intervals with at least one boost actuated. */
    std::uint64_t boostIntervals = 0;
    /** Boosted intervals whose boosts all missed the dominant stage. */
    std::uint64_t misboosts = 0;
    /** agreeIntervals / scoredIntervals (0 when nothing scoreable). */
    double agreementRate = 0.0;
    /** Mean critical-path shortening after boosted intervals (%). */
    double meanShorteningPct = 0.0;
    /** Mean critical-path share per stage over profiled queries. */
    std::vector<double> stageShare;

    /** The shortening mean's numerator and denominator. */
    double shorteningSumPct = 0.0;
    std::uint64_t shorteningCount = 0;
    /** Per stage: summed share and profiled paths (the share means). */
    std::vector<double> stageShareSum;
    std::vector<std::uint64_t> stagePaths;

    /** Fold one node's summary in, exactly (see RunAuditSummary). */
    void merge(const RunCritPathSummary &node);
};

/**
 * Summarize one node's audit log / critical-path collector into the
 * RunResult blocks; a fleet merges its nodes' summaries.
 */
RunAuditSummary summarizeAudit(const AuditLog &audit);
RunCritPathSummary summarizeCritPath(const CritPathCollector &cp);

/**
 * Post-run invariants, checked at the end of every run on every node:
 * no query was lost or minted (submitted == completed + resident) and
 * the budget ledger holds every live instance at the level it actually
 * runs at, even after dropped PERF_CTL writes and crash/recovery
 * churn. Fatal on violation; @p node names the node of a fleet run
 * in the diagnostic (-1 for a single-node run).
 */
void checkRunInvariants(const MultiStageApp &app,
                        const PowerBudget &budget, int node);

struct RunResult
{
    std::string scenario;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;

    /** Over completions after warmup. */
    double avgLatencySec = 0.0;
    double p99LatencySec = 0.0;
    double maxLatencySec = 0.0;

    /** Per-stage queuing/serving means over post-warmup completions. */
    std::vector<StageBreakdown> stageBreakdown;

    /** RAPL-measured average package power after warmup. */
    double avgPowerWatts = 0.0;
    double energyJoules = 0.0;

    /** Traces (populated when Scenario traces are enabled). */
    TimeSeries latencySeries{"latency"};   // per-completion samples
    TimeSeries powerSeries{"power"};       // sampled window power
    std::vector<TimeSeries> stageInstanceCounts;
    std::map<std::string, TimeSeries> instanceFrequencyGHz;

    /**
     * Per-stage decomposition of the p95/p99 end-to-end latency
     * (populated when attribution collection is enabled).
     */
    TailAttributionReport tailAttribution;

    /** Decision-audit summary (populated when audit collection is on). */
    RunAuditSummary audit;

    /** Critical-path summary (populated when critpath collection is on). */
    RunCritPathSummary critpath;

    /** SLO burn-rate report (populated when SLO tracking is on). */
    SloReport slo;

    /** Improvement of this run vs a baseline run (paper's "NX"). */
    static double improvement(double baseline, double value);
};

class ExperimentRunner
{
  public:
    /**
     * @param recordTraces collect the time-series traces (costs memory).
     * @param sampleInterval sampling period for power/instance traces.
     * @param attribution collect the tail-attribution report (per-stage
     *        queue/serve decomposition of p95/p99 latency).
     * @param collectAudit run with the decision-audit log enabled and
     *        summarize it into RunResult::audit (no file output; the
     *        audit layer is a pure observer, so the rest of the result
     *        is unchanged).
     * @param slo when enabled, track the latency SLO over post-warmup
     *        completions (multi-window burn rates, violation seconds)
     *        into RunResult::slo. A targetSec of 0 auto-resolves to
     *        the scenario QoS target, else 3x the summed stage service
     *        means. Pure observer, like audit.
     * @param collectCritPath run with the critical-path collector
     *        enabled and summarize it into RunResult::critpath (no
     *        file output; pure observer, like audit).
     */
    explicit ExperimentRunner(bool recordTraces = false,
                              SimTime sampleInterval = SimTime::sec(5),
                              bool attribution = false,
                              bool collectAudit = false,
                              SloConfig slo = {},
                              bool collectCritPath = false);

    /**
     * Observe every control interval of subsequent run() calls: the
     * probe fires after the policy (and withdraw monitor) acted, with
     * the interval's full ControlContext. A pure observer hook for the
     * cross-policy invariant tests; pass nullptr to detach. Single-node
     * scenarios only: one probe cannot observe several concurrent
     * controllers deterministically, so a run of nodeGroups > 1 with a
     * probe attached is fatal.
     */
    void setIntervalProbe(
        std::function<void(const ControlContext &)> probe)
    {
        intervalProbe_ = std::move(probe);
    }

    /**
     * Observe every rebalance decision of the cluster arbiter on
     * subsequent cluster runs (scenarios with a clusterPolicy;
     * cluster/arbiter.h). A pure observer hook for the cluster
     * conservation tests; ignored by non-cluster scenarios. Pass
     * nullptr to detach.
     */
    void setClusterProbe(
        std::function<void(const ClusterDecision &)> probe)
    {
        clusterProbe_ = std::move(probe);
    }

    /**
     * Worker threads that run the node groups (Scenario::nodeGroups).
     * Clamped to [1, nodeGroups] at run time, so a single-node scenario
     * always runs on the calling thread; <= 0 resolves to one per
     * hardware thread. A pure execution knob: every result field and
     * artifact byte is identical at any value.
     */
    void setShards(int shards) { shards_ = shards; }

    /**
     * Run one scenario: one node stack per node group on the sharded
     * engine, merged deterministically into one RunResult.
     *
     * @param telemetry optional observability config. When any output
     *        is enabled each node owns a private Telemetry (per-query
     *        spans, control-plane events, the metrics registry) and the
     *        run writes the configured files before returning: the
     *        plain documents for a single node, "powerchief-sharded-v1"
     *        envelopes (JSON only) for several. Telemetry is a pure
     *        observer: the RunResult is identical with it on or off.
     */
    RunResult run(const Scenario &scenario,
                  const TelemetryConfig *telemetry = nullptr) const;

  private:
    bool recordTraces_;
    SimTime sampleInterval_;
    bool attribution_;
    bool collectAudit_;
    SloConfig slo_;
    bool collectCritPath_;
    int shards_ = 1;
    std::function<void(const ControlContext &)> intervalProbe_;
    std::function<void(const ClusterDecision &)> clusterProbe_;
};

} // namespace pc

#endif // PC_EXP_RUNNER_H
