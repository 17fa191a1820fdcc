/**
 * @file
 * Decision-audit log: every control-plane decision, explained and scored.
 *
 * The telemetry layer records *what happened*; the audit log records
 * *why*. Each boosting selection (Algorithm 1), power recycle
 * (Algorithm 2) and instance withdraw (§6.2) appends one structured
 * record carrying the full decision inputs — per-candidate L, q̄, s̄ and
 * LatencyMetric, the Eq. 2 / Eq. 3 delay estimates, the speedup ratio
 * α_lh, power headroom before and after, donor DVFS steps taken — and
 * boosting predictions are later *scored* against the realized stage
 * delay, so a run reports the prediction error (MAPE) of the models the
 * policy acted on, plus how often consecutive decisions flipped kind.
 *
 * Like the trace sink, the log is a pure observer: nothing in the
 * control plane reads it, a disabled log costs one branch per decision,
 * and the JSON dump is a function of the scenario alone — byte-identical
 * at any sweep --jobs value.
 *
 * This layer deliberately knows nothing about core/ types; callers copy
 * the fields they want audited into the Audit* mirror structs below.
 */

#ifndef PC_OBS_AUDIT_H
#define PC_OBS_AUDIT_H

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace pc {

/** Mirror of core's BoostKind (obs cannot depend on core headers). */
enum class AuditBoostKind { None, Frequency, Instance };

const char *toString(AuditBoostKind kind);

/** What class of control-plane decision a record describes. */
enum class AuditDecisionKind {
    Select,
    Recycle,
    Withdraw,
    StaleSkip,
    /** One FastCap interval plan (joint frequency re-allocation). */
    FastCapPlan,
    /** One CuttleSys interval plan ((cores, level) reconfiguration). */
    CuttleSysPlan,
    /** One online anomaly alert (EWMA z-score; obs/alerts.h). */
    ObsAlert,
    /**
     * A boosted interval whose boosts all missed the stage dominating
     * the critical paths of the queries completing in that interval
     * (obs/critpath.h bottleneck-efficacy scoring).
     */
    Misboost,
    /**
     * One per-node slice of a cluster-arbiter rebalance round: the
     * node's assumed share before/after, its staleness-decayed demand
     * and whether it was frozen (cluster/arbiter.h).
     */
    ClusterRebalance,

    /** Sentinel: number of kinds. Keep last. */
    Count,
};

/** Per-kind arrays are sized from the enum itself. */
inline constexpr std::size_t kNumAuditDecisionKinds =
    static_cast<std::size_t>(AuditDecisionKind::Count);

const char *toString(AuditDecisionKind kind);

/** One ranked instance as the decision engine saw it (Eq. 1 inputs). */
struct AuditCandidate
{
    /**
     * Stable per-run instance identity. The simulator's raw instance
     * ids come from a process-global counter, so AuditLog remaps them
     * to dense ids in first-reference order — a deterministic function
     * of the scenario — keeping dumps byte-identical at any --jobs.
     * The same instance keeps the same local id across records.
     */
    std::int64_t instanceId = -1;
    int stageIndex = -1;
    int level = 0;
    /** Realtime queue length Lᵢ. */
    std::uint64_t queueLength = 0;
    /** Windowed q̄ᵢ / s̄ᵢ (seconds). */
    double avgQueuingSec = 0.0;
    double avgServingSec = 0.0;
    /** The bottleneck metric the ranking sorted by. */
    double metric = 0.0;
};

struct AuditRecord
{
    /** Monotone sequence number; also the records[] index. */
    std::uint64_t seq = 0;
    /** Simulation time the decision was taken. */
    SimTime t;
    /** Control interval (1-based) the decision belongs to. */
    std::uint64_t interval = 0;
    AuditDecisionKind kind = AuditDecisionKind::Select;

    // --- Select (Algorithm 1) ---
    AuditBoostKind chosen = AuditBoostKind::None;
    std::int64_t targetInstance = -1;
    int stageIndex = -1;
    int fromLevel = 0;
    int toLevel = 0;
    /** Eq. 2: expected delay under instance boosting (seconds). */
    double tInstSec = 0.0;
    /** Eq. 3: expected delay under frequency boosting (seconds). */
    double tFreqSec = 0.0;
    /** α_lh = r(to)/r(from), the speedup ratio Eq. 3 scaled by. */
    double alphaLh = 0.0;
    double headroomBeforeWatts = 0.0;
    double headroomAfterWatts = 0.0;
    /** Whether the caller actuated the chosen boost (policies may not). */
    bool actuated = false;
    /** Chosen kind differs from this stage's previous non-None choice. */
    bool flip = false;
    /** The full ranking the selection ran against (ascending metric). */
    std::vector<AuditCandidate> candidates;

    // --- Recycle (Algorithm 2); recycledWatts also set on Select ---
    double neededWatts = 0.0;
    double recycledWatts = 0.0;
    std::uint64_t donorSteps = 0;

    // --- Withdraw (§6.2) ---
    double utilization = 0.0;
    double utilizationThreshold = 0.0;

    // --- StaleSkip (degraded-telemetry guard; target/stageIndex set) ---
    /** Age of the instance's last report when it was skipped (seconds). */
    double ageSec = 0.0;
    /** The stale window the age exceeded (seconds). */
    double staleWindowSec = 0.0;

    // --- FastCapPlan / CuttleSysPlan (rival policies' per-interval
    //     plans; headroomBefore/AfterWatts above are also set) ---
    /** Frequency steps the plan actuated, up and down. */
    std::uint64_t planStepsUp = 0;
    std::uint64_t planStepsDown = 0;
    /** Instances launched / withdrawn by the plan (CuttleSys). */
    std::uint64_t planLaunches = 0;
    std::uint64_t planWithdraws = 0;
    /** The objective value the chosen plan predicts (seconds). */
    double planObjectiveSec = 0.0;
    /** Modelled power the plan reserves (watts). */
    double planPlannedWatts = 0.0;
    /** CuttleSys: this interval spent its online exploration budget. */
    bool planExplore = false;

    // --- ObsAlert (online anomaly detection; obs/alerts.h) ---
    /** The health-tap series the detector fired on. */
    std::string alertSeries;
    /** The sampled value that tripped the detector. */
    double alertValue = 0.0;
    /** The detector's EWMA mean and standard deviation at that point. */
    double alertMean = 0.0;
    double alertSigma = 0.0;
    /** The z-score and the threshold it exceeded (|z| >= threshold). */
    double alertZ = 0.0;
    double alertThreshold = 0.0;
    /** +1 = spike above the mean, -1 = drop below it. */
    int alertDirection = 0;

    // --- Misboost (critical-path scoring; obs/critpath.h) ---
    /** A stage the controller boosted this interval (stageIndex when
     *  a single boost; the first boosted stage otherwise). */
    int misboostBoostedStage = -1;
    /** The stage dominating the interval's critical paths. */
    int misboostDominantStage = -1;
    /** Critical-path share of the dominant / boosted stage (0..1). */
    double misboostDominantShare = 0.0;
    double misboostBoostedShare = 0.0;

    // --- ClusterRebalance (cluster/arbiter.h rebalance rounds) ---
    /** Node group the slice describes. */
    int clusterNode = -1;
    /** 1-based rebalance round within the run. */
    std::uint64_t clusterRound = 0;
    /** The node's assumed share before / after the decision (watts). */
    double clusterCapBeforeWatts = 0.0;
    double clusterCapAfterWatts = 0.0;
    /** Staleness-decayed demand score the policy weighed. */
    double clusterDemand = 0.0;
    /** Age of the node's last report at decision time (seconds). */
    double clusterReportAgeSec = 0.0;
    /** The node was frozen (reports stale past the threshold). */
    bool clusterFrozen = false;
    /** A grant was actually sent to the node this round. */
    bool clusterGranted = false;

    // --- Prediction scoring (Select records only) ---
    bool scored = false;
    SimTime scoredAt;
    /** The estimate the chosen kind promised (T_inst or T_freq). */
    double predictedSec = 0.0;
    /** Realized stage delay at the next control interval. */
    double realizedSec = 0.0;
    /** |predicted − realized| / realized × 100. */
    double absPctErr = 0.0;
};

/**
 * Append-only log of audit records for one run. Disabled (the default
 * unless --audit-out asks for a file) every mutator is a cheap no-op.
 */
class AuditLog
{
  public:
    explicit AuditLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Mark the start of control interval @p interval (1-based) at
     * @p now; records appended before the next call carry these
     * coordinates. Call before the interval's decisions are made.
     */
    void beginInterval(SimTime now, std::uint64_t interval);

    /**
     * Append a Select record. seq/t/interval are filled in; flip is
     * computed against the stage's previous non-None choice.
     */
    void recordSelect(AuditRecord rec);

    /** Append a Recycle record (one per Algorithm 2 invocation). */
    void recordRecycle(double neededWatts, double recycledWatts,
                       std::uint64_t donorSteps);

    /** Append a Withdraw record (one per withdrawn instance). */
    void recordWithdraw(std::int64_t instanceId, int stageIndex,
                        double utilization, double threshold);

    /**
     * Append a StaleSkip record (one per instance the bottleneck
     * ranking excluded because its telemetry went stale).
     */
    void recordStaleSkip(std::int64_t instanceId, int stageIndex,
                         double ageSec, double staleWindowSec);

    /**
     * Append a FastCapPlan or CuttleSysPlan record; only the plan
     * fields (and headroom before/after) of @p rec are read, the
     * seq/t/interval coordinates are filled in here.
     */
    void recordPlan(AuditDecisionKind kind, AuditRecord rec);

    /**
     * Append an ObsAlert record (one per detector firing; see
     * obs/alerts.h for the EWMA z-score semantics of the fields).
     */
    void recordAlert(const std::string &series, double value,
                     double mean, double sigma, double z,
                     double threshold, int direction);

    /**
     * Append a Misboost record (one per control interval whose boosts
     * all missed the critical-path-dominant stage; obs/critpath.h).
     */
    void recordMisboost(int boostedStage, int dominantStage,
                        double dominantShare, double boostedShare);

    /**
     * Append a ClusterRebalance record (one per node per arbiter
     * rebalance round; cluster/arbiter.h).
     */
    void recordClusterRebalance(int node, std::uint64_t round,
                                double capBeforeWatts,
                                double capAfterWatts, double demand,
                                double reportAgeSec, bool frozen,
                                bool granted);

    /**
     * Mark the most recent unactuated Select record of @p kind as
     * actuated. Fed from the decision emissions (core/decision.h),
     * which fire when the policy applies a boost.
     */
    void noteActuation(AuditBoostKind kind);

    /**
     * Score every pending Select prediction older than @p now against
     * @p stageRealizedSec (realized delay per stage, seconds). Records
     * whose stage shows no realized delay yet stay pending and are
     * retried at the next interval.
     */
    void scorePending(SimTime now,
                      const std::vector<double> &stageRealizedSec);

    const std::deque<AuditRecord> &records() const { return records_; }

    /**
     * Mean absolute percentage error of scored predictions, filtered by
     * chosen @p kind (AuditBoostKind::None = all kinds). 0 when nothing
     * has been scored.
     */
    double mapePct(AuditBoostKind kind = AuditBoostKind::None) const;

    /** Non-None Select records whose kind differed from the previous. */
    std::uint64_t flips() const;

    /** The whole log — records plus a summary — as one JSON value. */
    JsonValue toJson() const;

    /** Write toJson() with a trailing newline. */
    void writeJson(std::ostream &out) const;

  private:
    bool enabled_;
    SimTime now_;
    std::uint64_t interval_ = 0;
    /** Raw → dense per-run instance id (see AuditCandidate). */
    std::int64_t localId(std::int64_t instanceId);

    std::deque<AuditRecord> records_;
    /** Last non-None choice per stage, for flip detection. */
    std::map<int, AuditBoostKind> lastChoice_;
    std::map<std::int64_t, std::int64_t> localIds_;
};

} // namespace pc

#endif // PC_OBS_AUDIT_H
