/**
 * @file
 * Pluggable cluster-level power-split policies.
 *
 * PowerChief governs one power-constrained CMP; the cluster layer
 * applies the same idea one level up: a fleet-wide budget is split
 * across node groups, each of which runs its own CommandCenter over
 * its local share. A ClusterPolicy only *proposes* per-node target
 * caps from the demand picture — the ClusterArbiter (cluster/arbiter.h)
 * owns conservation and turns proposals into grants that can never
 * oversubscribe the fleet cap, even under report/grant loss.
 *
 * The roster: equal-split is the static baseline, and proportional-
 * demand reassigns watts from data-driven demand signals
 * (CuttleSys-style).
 */

#ifndef PC_CLUSTER_CLUSTER_POLICY_H
#define PC_CLUSTER_CLUSTER_POLICY_H

#include <memory>
#include <string>
#include <vector>

namespace pc {

enum class ClusterPolicyKind {
    /** No cluster arbiter: every node keeps its static local budget. */
    None,
    /** Static fleet-cap / N split — the baseline the rivals beat. */
    EqualSplit,
    /** Floors at confirmed draw; surplus proportional to demand. */
    ProportionalDemand,

    /** Sentinel: number of kinds. Keep last. */
    Count,
};

inline constexpr std::size_t kNumClusterPolicyKinds =
    static_cast<std::size_t>(ClusterPolicyKind::Count);

/** Canonical name, round-trippable through parseClusterPolicyKind(). */
const char *toString(ClusterPolicyKind kind);

/** Parse a canonical name. @retval false unknown; *out untouched. */
bool parseClusterPolicyKind(const std::string &name,
                            ClusterPolicyKind *out);

/** Comma-separated list of every canonical name, for error messages. */
std::string clusterPolicyKindNames();

/** Every ClusterPolicyKind, in declaration order. */
std::vector<ClusterPolicyKind> allClusterPolicyKinds();

/**
 * One node as the arbiter sees it at a rebalance decision point. All
 * values are staleness-adjusted by the arbiter before the policy runs.
 */
struct ClusterNodeView
{
    int node = -1;

    /**
     * The watts the arbiter currently assumes the node may consume
     * (its conservation upper bound; see ClusterArbiter). Proposals
     * above this are increases, below it decreases.
     */
    double assumedCapWatts = 0.0;

    /** Minimum target the policy may propose (anti-starvation floor). */
    double floorWatts = 0.0;

    /** Staleness-decayed demand score (relative weight, >= 0). */
    double demand = 0.0;

    /**
     * The node's reports have gone stale past the freeze threshold
     * (e.g. a partition). The arbiter pins frozen nodes at their
     * assumed share; the policy must leave their target == assumed.
     */
    bool frozen = false;
};

/**
 * Split @p clusterCapWatts into per-node target caps. Contract:
 *  - targets->size() == nodes.size(), aligned by index;
 *  - frozen nodes keep target == assumedCapWatts;
 *  - every unfrozen target >= floorWatts;
 *  - the sum over all targets is <= clusterCapWatts (+ rounding).
 * The arbiter re-clamps and applies conservative grant accounting on
 * top, so a buggy policy can waste watts but never oversubscribe.
 */
class ClusterPolicy
{
  public:
    virtual ~ClusterPolicy() = default;

    virtual const char *name() const = 0;

    virtual void split(double clusterCapWatts,
                       const std::vector<ClusterNodeView> &nodes,
                       std::vector<double> *targets) const = 0;
};

/**
 * Instantiate @p kind; ClusterPolicyKind::None returns nullptr (no
 * arbiter is built for scenarios without a cluster policy).
 */
std::unique_ptr<ClusterPolicy> makeClusterPolicy(ClusterPolicyKind kind);

} // namespace pc

#endif // PC_CLUSTER_CLUSTER_POLICY_H
