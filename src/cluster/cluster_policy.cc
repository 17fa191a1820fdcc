#include "cluster/cluster_policy.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"

namespace pc {

const char *toString(ClusterPolicyKind kind)
{
    switch (kind) {
    case ClusterPolicyKind::None:
        return "none";
    case ClusterPolicyKind::EqualSplit:
        return "equal-split";
    case ClusterPolicyKind::ProportionalDemand:
        return "proportional";
    case ClusterPolicyKind::Count:
        break;
    }
    panic("invalid ClusterPolicyKind %d", static_cast<int>(kind));
}

bool parseClusterPolicyKind(const std::string &name, ClusterPolicyKind *out)
{
    for (ClusterPolicyKind kind : allClusterPolicyKinds()) {
        if (name == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    // Aliases: spell the demand policy the way the per-node knobs do.
    if (name == "proportional-demand") {
        *out = ClusterPolicyKind::ProportionalDemand;
        return true;
    }
    return false;
}

std::string clusterPolicyKindNames()
{
    std::string names;
    for (ClusterPolicyKind kind : allClusterPolicyKinds()) {
        if (!names.empty())
            names += ", ";
        names += toString(kind);
    }
    return names;
}

std::vector<ClusterPolicyKind> allClusterPolicyKinds()
{
    std::vector<ClusterPolicyKind> kinds;
    kinds.reserve(kNumClusterPolicyKinds);
    for (std::size_t i = 0; i < kNumClusterPolicyKinds; ++i)
        kinds.push_back(static_cast<ClusterPolicyKind>(i));
    return kinds;
}

namespace {

/**
 * Watts not pinned by frozen nodes: the pool the policy may divide
 * among the unfrozen ones. Frozen targets are fixed at assumed.
 */
double unfrozenPool(double clusterCapWatts,
                    const std::vector<ClusterNodeView> &nodes)
{
    double pool = clusterCapWatts;
    for (const ClusterNodeView &n : nodes) {
        if (n.frozen)
            pool -= n.assumedCapWatts;
    }
    return std::max(pool, 0.0);
}

class EqualSplitPolicy final : public ClusterPolicy
{
  public:
    const char *name() const override { return "equal-split"; }

    void split(double clusterCapWatts,
               const std::vector<ClusterNodeView> &nodes,
               std::vector<double> *targets) const override
    {
        targets->assign(nodes.size(), 0.0);
        std::size_t unfrozen = 0;
        for (const ClusterNodeView &n : nodes)
            unfrozen += n.frozen ? 0 : 1;
        const double pool = unfrozenPool(clusterCapWatts, nodes);
        const double share =
            unfrozen > 0 ? pool / static_cast<double>(unfrozen) : 0.0;
        for (std::size_t i = 0; i < nodes.size(); ++i)
            (*targets)[i] =
                nodes[i].frozen ? nodes[i].assumedCapWatts : share;
    }
};

class ProportionalDemandPolicy final : public ClusterPolicy
{
  public:
    const char *name() const override { return "proportional"; }

    void split(double clusterCapWatts,
               const std::vector<ClusterNodeView> &nodes,
               std::vector<double> *targets) const override
    {
        targets->assign(nodes.size(), 0.0);
        // Phase 1: floors. Every unfrozen node keeps its
        // anti-starvation floor so a demand spike elsewhere cannot
        // zero a quiet node out.
        double pool = unfrozenPool(clusterCapWatts, nodes);
        double demandSum = 0.0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const ClusterNodeView &n = nodes[i];
            if (n.frozen) {
                (*targets)[i] = n.assumedCapWatts;
                continue;
            }
            const double floor = std::min(n.floorWatts, pool);
            (*targets)[i] = floor;
            pool -= floor;
            demandSum += n.demand;
        }
        if (pool <= 0.0)
            return;
        // Phase 2: surplus proportional to decayed demand; with no
        // demand anywhere fall back to an equal division so the
        // surplus is not silently wasted.
        std::size_t unfrozen = 0;
        for (const ClusterNodeView &n : nodes)
            unfrozen += n.frozen ? 0 : 1;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const ClusterNodeView &n = nodes[i];
            if (n.frozen)
                continue;
            const double weight =
                demandSum > 0.0
                    ? n.demand / demandSum
                    : (unfrozen > 0 ? 1.0 / static_cast<double>(unfrozen)
                                    : 0.0);
            (*targets)[i] += pool * weight;
        }
    }
};

} // namespace

std::unique_ptr<ClusterPolicy> makeClusterPolicy(ClusterPolicyKind kind)
{
    switch (kind) {
    case ClusterPolicyKind::None:
        return nullptr;
    case ClusterPolicyKind::EqualSplit:
        return std::make_unique<EqualSplitPolicy>();
    case ClusterPolicyKind::ProportionalDemand:
        return std::make_unique<ProportionalDemandPolicy>();
    case ClusterPolicyKind::Count:
        break;
    }
    panic("invalid ClusterPolicyKind %d", static_cast<int>(kind));
}

} // namespace pc
