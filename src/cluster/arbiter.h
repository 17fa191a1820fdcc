/**
 * @file
 * ClusterArbiter: the root of the cluster→node→stage budget tree.
 *
 * The arbiter lives on node group 0's simulator and owns the fleet-wide
 * power cap. Each node group periodically sends a ClusterNodeReport
 * (demand signals from its obs layer: tail latency and queue backlog,
 * plus its effective cap) over the per-node MessageBus + cross-shard
 * fabric; the arbiter rebalances the cap with a pluggable ClusterPolicy
 * and answers with ClusterGrant messages that retarget each node's
 * local PowerBudget.
 *
 * Conservation under loss is the whole design. Reports and grants ride
 * the lossy bus (drops, duplicates, reordering), so the arbiter tracks
 * a per-node *assumed* cap — an upper bound on what the node may be
 * consuming — and only ever hands out watts from the confirmed-free
 * pool `clusterCap - sum(assumed)`:
 *
 *  - granting an increase debits `assumed` immediately (if the grant
 *    is lost the watts are wasted, never double-spent);
 *  - granting a decrease leaves `assumed` untouched until a report
 *    confirms the node actually came down (a lost decrease must not
 *    free watts for someone else);
 *  - reports carry sequence numbers, and so do grants, so duplicated
 *    or reordered deliveries can never resurrect a stale cap.
 *
 * A node whose reports stop arriving (partitioned minority) has its
 * demand decayed toward zero and is eventually *frozen*: it keeps its
 * last granted share — never more — and the arbiter stops moving its
 * watts until reports resume. The invariant `sum(assumed) <= cap` is
 * checked fatally at every decision point and again post-run by
 * ExperimentRunner's cluster ledger checks.
 */

#ifndef PC_CLUSTER_ARBITER_H
#define PC_CLUSTER_ARBITER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_policy.h"
#include "common/json.h"
#include "common/time.h"

namespace pc {

class AuditLog;
class MetricsRegistry;
class Simulator;

/**
 * Demand snapshot one node group sends to the arbiter. Values are
 * sampled on the node's simulator at generation time; seq increases
 * by one per generated report so the arbiter can drop duplicates and
 * out-of-order deliveries.
 */
struct ClusterNodeReport
{
    int node = -1;
    std::uint64_t seq = 0;

    /** The node's effective cap: max(granted target, allocated). */
    double effectiveCapWatts = 0.0;

    /** Queries queued (not yet dispatched) across all stages. */
    double queueBacklog = 0.0;
    /** End-to-end p99 over the node's moving window, seconds. */
    double p99Sec = 0.0;
};

/** Cap retarget sent back to one node; seq orders grant application. */
struct ClusterGrant
{
    int node = -1;
    std::uint64_t seq = 0;
    double targetCapWatts = 0.0;
};

/** One node's slice of a rebalance decision (test/audit probe). */
struct ClusterNodeDecision
{
    int node = -1;
    double assumedBeforeWatts = 0.0;
    double assumedAfterWatts = 0.0;
    double targetWatts = 0.0;
    double demand = 0.0;
    double reportAgeSec = 0.0;
    bool frozen = false;
    bool granted = false;
};

/** Full rebalance decision, delivered to the decision probe. */
struct ClusterDecision
{
    SimTime t;
    std::uint64_t round = 0;
    double capWatts = 0.0;
    /** sum(assumed) after the decision; always <= capWatts. */
    double assumedTotalWatts = 0.0;
    std::vector<ClusterNodeDecision> nodes;
};

struct ClusterArbiterConfig
{
    /** Fleet-wide cap the arbiter conserves. Must be positive. */
    double capWatts = 0.0;

    /** Rebalance period (>= the nodes' local control interval). */
    SimTime rebalanceInterval = SimTime::sec(5);

    /**
     * Reports older than this are treated as a partition: the node is
     * frozen at its assumed share. Zero selects 3x rebalanceInterval.
     */
    SimTime freezeAfter = SimTime::zero();

    /**
     * Demand half-life for staleness decay: a report's demand score
     * is halved every this-much age. Zero selects 2x rebalanceInterval.
     */
    SimTime demandHalfLife = SimTime::zero();

    /** Anti-starvation floor as a fraction of the equal share. */
    double floorFraction = 0.25;
};

class ClusterArbiter
{
  public:
    /**
     * @param sim      node 0's simulator (decisions run on it).
     * @param numNodes node-group count; initial grant is cap/numNodes.
     * @param policy   split policy (must not be null).
     * @param audit    optional: receives cluster_rebalance records.
     * @param metrics  optional: receives cluster.* gauges/counters.
     */
    ClusterArbiter(Simulator *sim, int numNodes,
                   const ClusterArbiterConfig &cfg,
                   std::unique_ptr<ClusterPolicy> policy,
                   AuditLog *audit, MetricsRegistry *metrics);

    /**
     * Install the grant transport. Called once per emitted grant, on
     * node 0's simulator; the callback owns cross-shard delivery.
     */
    void setGrantSink(std::function<void(const ClusterGrant &)> fn)
    {
        grantSink_ = std::move(fn);
    }

    /** Observe every rebalance decision (used by the test suite). */
    void setDecisionProbe(std::function<void(const ClusterDecision &)> fn)
    {
        decisionProbe_ = std::move(fn);
    }

    /** Schedule the periodic rebalance loop; call once before run. */
    void start();

    /** Deliver one node report (duplicates / stale seqs are dropped). */
    void onReport(const ClusterNodeReport &report);

    double capWatts() const { return cfg_.capWatts; }
    const char *policyName() const { return policy_->name(); }

    /** Current conservation bound for @p node (watts). */
    double assumedCapWatts(int node) const;
    /** sum(assumed) over all nodes; invariant: <= capWatts(). */
    double assumedTotalWatts() const;
    /** Last target granted to @p node (watts). */
    double lastGrantWatts(int node) const;
    /** Whether @p node is currently frozen (stale reports). */
    bool isFrozen(int node) const;

    std::uint64_t rebalances() const { return rebalances_; }
    std::uint64_t grantsSent() const { return grantsSent_; }
    std::uint64_t reportsSeen() const { return reportsSeen_; }
    std::uint64_t reportsDropped() const { return reportsDropped_; }
    std::uint64_t freezeEvents() const { return freezeEvents_; }

    /** Summary object embedded in the timeseries envelope. */
    JsonValue summaryJson() const;

  private:
    struct NodeState
    {
        /** Conservation upper bound on the node's consumption. */
        double assumedWatts = 0.0;
        /** Target of the last grant sent (may be unconfirmed). */
        double lastGrantWatts = 0.0;
        std::uint64_t grantSeq = 0;
        std::uint64_t lastReportSeq = 0;
        bool reported = false;
        SimTime lastReportAt;
        ClusterNodeReport last;
        bool frozen = false;
    };

    void rebalance();
    void sendGrant(int node, double targetWatts);
    /** Fatal unless sum(assumed) <= cap (+ slack). */
    void checkConservation(const char *when) const;
    void publishGauges();
    double demandScore(const NodeState &st, SimTime now) const;
    double reportAgeSec(const NodeState &st, SimTime now) const;

    Simulator *sim_;
    ClusterArbiterConfig cfg_;
    std::unique_ptr<ClusterPolicy> policy_;
    AuditLog *audit_;
    MetricsRegistry *metrics_;
    std::function<void(const ClusterGrant &)> grantSink_;
    std::function<void(const ClusterDecision &)> decisionProbe_;

    std::vector<NodeState> nodes_;
    std::uint64_t rebalances_ = 0;
    std::uint64_t grantsSent_ = 0;
    std::uint64_t reportsSeen_ = 0;
    std::uint64_t reportsDropped_ = 0;
    std::uint64_t freezeEvents_ = 0;

    // Scratch reused across rebalances (no steady-state allocation).
    std::vector<ClusterNodeView> views_;
    std::vector<double> targets_;
};

} // namespace pc

#endif // PC_CLUSTER_ARBITER_H
