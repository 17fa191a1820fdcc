#include "core/bottleneck.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace pc {

BottleneckIdentifier::BottleneckIdentifier(
    SimTime windowSpan, std::unique_ptr<BottleneckMetric> metric)
    : span_(windowSpan), metric_(std::move(metric))
{
    if (!metric_)
        metric_ = std::make_unique<PowerChiefMetric>();
    if (span_ <= SimTime::zero())
        fatal("bottleneck window span must be positive");
}

void
BottleneckIdentifier::ensureInstanceTables(std::int32_t local)
{
    const auto need = static_cast<std::size_t>(local) + 1;
    if (perInstance_.size() >= need)
        return;
    perInstance_.resize(need, InstanceStats(span_));
    lastReport_.resize(need);
    reported_.resize(need, 0);
}

void
BottleneckIdentifier::observe(SimTime now, const Query &query)
{
    observe(now, query.hops());
}

void
BottleneckIdentifier::observe(SimTime now,
                              const std::vector<HopRecord> &hops)
{
    for (const auto &hop : hops) {
        // Wasted hops (service aborted by a crash) carry no completed
        // work; scoring them would inflate the victim stage's delay
        // with time the re-dispatch already re-charges elsewhere.
        if (hop.wasted)
            continue;
        // One remap lookup resolves every per-instance table.
        const std::int32_t local = ids_.idFor(hop.instanceId);
        ensureInstanceTables(local);
        const auto li = static_cast<std::size_t>(local);
        perInstance_[li].queuing.add(now, hop.queuing().toSec());
        perInstance_[li].serving.add(now, hop.serving().toSec());
        lastReport_[li] = now;
        reported_[li] = 1;

        if (hop.stageIndex < 0)
            continue;
        const auto s = static_cast<std::size_t>(hop.stageIndex);
        while (perStage_.size() <= s)
            perStage_.push_back(InstanceStats(span_));
        perStage_[s].queuing.add(now, hop.queuing().toSec());
        perStage_[s].serving.add(now, hop.serving().toSec());
    }
}

SortedSnapshots
BottleneckIdentifier::rank(SimTime now, const MultiStageApp &app)
{
    SortedSnapshots out;
    staleSkips_.clear();
    for (int s = 0; s < app.numStages(); ++s) {
        for (const auto *inst : app.stage(s).instances()) {
            const std::int32_t local = ids_.find(inst->id());
            const bool hasHistory = local != DenseIdMap::kUnknown &&
                reported_[static_cast<std::size_t>(local)];
            if (staleWindow_ > SimTime::zero() && hasHistory) {
                // Frozen averages are worse than no averages: an
                // instance that reported once and then went silent is
                // excluded rather than scored on stale history. (A
                // never-reporting fresh clone still ranks, seeded from
                // the stage aggregate below.)
                const SimTime last =
                    lastReport_[static_cast<std::size_t>(local)];
                if (now - last > staleWindow_) {
                    staleSkips_.push_back(StaleSkip{
                        inst->id(), s, (now - last).toSec()});
                    ++staleSkipsTotal_;
                    continue;
                }
            }
            InstanceSnapshot snap;
            snap.instanceId = inst->id();
            snap.name = inst->name();
            snap.stageIndex = s;
            snap.coreId = inst->coreId();
            snap.level = inst->level();
            snap.queueLength = inst->queueLength();

            InstanceStats *stats = hasHistory
                ? &perInstance_[static_cast<std::size_t>(local)]
                : nullptr;
            if (stats) {
                stats->queuing.evict(now);
                stats->serving.evict(now);
            }
            if (!stats || stats->serving.empty()) {
                // No history yet (fresh clone): seed from the stage-level
                // aggregate so the instance is comparable to its peers.
                if (static_cast<std::size_t>(s) < perStage_.size())
                    stats = &perStage_[static_cast<std::size_t>(s)];
            }
            if (stats && !stats->serving.empty()) {
                snap.avgQueuingSec = stats->queuing.mean();
                snap.avgServingSec = stats->serving.mean();
                if (metric_->readsTailQuantiles()) {
                    snap.p99QueuingSec = stats->queuing.quantile(0.99);
                    snap.p99ServingSec = stats->serving.quantile(0.99);
                }
            }
            snap.metric = metric_->score(snap);
            out.push_back(std::move(snap));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const InstanceSnapshot &a, const InstanceSnapshot &b) {
                  if (a.metric != b.metric)
                      return a.metric < b.metric;
                  return a.instanceId < b.instanceId;
              });
    return out;
}

double
BottleneckIdentifier::stageRealizedDelaySec(int stage) const
{
    if (stage < 0 ||
        static_cast<std::size_t>(stage) >= perStage_.size())
        return 0.0;
    const InstanceStats &stats =
        perStage_[static_cast<std::size_t>(stage)];
    if (stats.serving.empty())
        return 0.0;
    return stats.queuing.max() + stats.serving.mean();
}

void
BottleneckIdentifier::stageDelayQuantiles(int stage, const double *qs,
                                          double *out,
                                          std::size_t n) const
{
    const bool missing = stage < 0 ||
        static_cast<std::size_t>(stage) >= perStage_.size() ||
        perStage_[static_cast<std::size_t>(stage)].serving.empty();
    if (missing) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 0.0;
        return;
    }
    const InstanceStats &stats =
        perStage_[static_cast<std::size_t>(stage)];
    servingQs_.resize(n);
    stats.queuing.quantiles(qs, out, n);
    stats.serving.quantiles(qs, servingQs_.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] += servingQs_[i];
}

InstanceSnapshot
BottleneckIdentifier::bottleneck(SimTime now, const MultiStageApp &app)
{
    auto sorted = rank(now, app);
    if (sorted.empty())
        panic("bottleneck query on an application with no instances");
    return sorted.back();
}

void
BottleneckIdentifier::garbageCollect(const MultiStageApp &app)
{
    std::unordered_set<std::int64_t> live;
    for (const auto *inst : app.allInstances())
        live.insert(inst->id());
    // Raw ids are never reused, so a dead slot only needs its sample
    // memory released; the local id itself stays allocated.
    for (std::size_t li = 0; li < perInstance_.size(); ++li) {
        if (!reported_[li])
            continue;
        if (live.count(ids_.rawOf(static_cast<std::int32_t>(li))))
            continue;
        perInstance_[li] = InstanceStats(span_);
        reported_[li] = 0;
    }
}

} // namespace pc
