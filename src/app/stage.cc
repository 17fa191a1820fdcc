#include "app/stage.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace pc {

std::int64_t
Stage::nextInstanceId()
{
    static std::atomic<std::int64_t> counter{1};
    return counter++;
}

Stage::Stage(int index, std::string name, Simulator *sim, CmpChip *chip,
             DispatchPolicy dispatch, StageKind kind)
    : index_(index), name_(std::move(name)), sim_(sim), chip_(chip),
      dispatcher_(dispatch), kind_(kind)
{
}

void
Stage::configureFanOut(int referenceShards, double shardCv,
                       std::uint64_t seed)
{
    if (kind_ != StageKind::FanOut)
        panic("stage %s is not a fan-out stage", name_.c_str());
    if (referenceShards <= 0)
        fatal("fan-out stage needs a positive reference shard count");
    referenceShards_ = referenceShards;
    shardCv_ = shardCv;
    shardLognormal_ = LognormalParams(1.0, shardCv_);
    shardRng_ = Rng(seed);
}

Stage::~Stage()
{
    // Return cores so the chip can be reused by a follow-on experiment.
    for (auto &inst : pool_) {
        chip_->core(inst->coreId()).setFreqChangeListener(nullptr);
        if (!inst->busy())
            chip_->releaseCore(inst->coreId());
    }
}

void
Stage::setCompletionCallback(StageCompletionCallback cb)
{
    onComplete_ = std::move(cb);
}

void
Stage::setTelemetry(Telemetry *telemetry)
{
    telemetry_ = telemetry;
    dispatcher_.setTelemetry(telemetry, index_);
    for (auto &inst : pool_) {
        if (telemetry_)
            telemetry_->trace().declareInstanceTrack(
                inst->id(), inst->name(), index_);
        inst->setTelemetry(telemetry_);
    }
}

ServiceInstance *
Stage::launchInstance(int level)
{
    auto coreId = chip_->acquireCore(level);
    if (!coreId)
        return nullptr;
    const std::int64_t id = nextInstanceId();
    ++launchCounter_;
    auto inst = std::make_unique<ServiceInstance>(
        id, name_ + "_" + std::to_string(launchCounter_), index_, sim_,
        chip_, *coreId, [this](QueryPtr q) { onInstanceComplete(std::move(q)); });
    ServiceInstance *raw = inst.get();
    if (telemetry_) {
        telemetry_->trace().declareInstanceTrack(id, raw->name(), index_);
        raw->setTelemetry(telemetry_);
    }
    pool_.push_back(std::move(inst));
    // Recovery after a crash outage: replay the parked queries in their
    // original order before anything else reaches the new instance.
    if (!holdQueue_.empty()) {
        std::vector<PendingQuery> parked = std::move(holdQueue_);
        holdQueue_.clear();
        for (auto &pending : parked)
            raw->adopt(std::move(pending));
    }
    crashOutage_ = false;
    return raw;
}

std::optional<Stage::CrashResult>
Stage::crashInstance(std::int64_t instanceId)
{
    const auto it = std::find_if(
        pool_.begin(), pool_.end(),
        [instanceId](const std::unique_ptr<ServiceInstance> &inst) {
            return inst->id() == instanceId;
        });
    if (it == pool_.end())
        return std::nullopt;
    ServiceInstance *victim = it->get();

    // A fan-out query is sharded over every live leaf; killing the last
    // one would leave shards with no instance to re-execute on, so the
    // injector treats it as a skipped (impossible) crash.
    if (kind_ == StageKind::FanOut && !victim->draining() &&
        instances().size() <= 1)
        return std::nullopt;

    CrashResult result;
    result.level = victim->level();

    std::vector<PendingQuery> orphans;
    if (auto inflight = victim->abortService())
        orphans.push_back(std::move(*inflight));
    for (auto &pending : victim->drainWaiting())
        orphans.push_back(std::move(pending));

    chip_->core(victim->coreId()).setFreqChangeListener(nullptr);
    chip_->releaseCore(victim->coreId());
    pool_.erase(it);

    for (auto &orphan : orphans) {
        // Least-loaded live peer; with none left, park until relaunch.
        ServiceInstance *target = nullptr;
        std::size_t best = SIZE_MAX;
        for (auto *inst : instances()) {
            if (inst->queueLength() < best) {
                best = inst->queueLength();
                target = inst;
            }
        }
        if (target) {
            target->adopt(std::move(orphan));
            ++result.redispatched;
        } else {
            holdQueue_.push_back(std::move(orphan));
            ++result.held;
        }
    }
    if (instances().empty())
        crashOutage_ = true;
    return result;
}

std::uint64_t
Stage::residentQueries() const
{
    std::uint64_t resident = holdQueue_.size();
    if (kind_ == StageKind::FanOut)
        return resident + fanOutResident_;
    for (const auto &inst : pool_)
        resident += inst->queueLength();
    return resident;
}

bool
Stage::withdrawInstance(std::int64_t instanceId,
                        ServiceInstance *redirectTo)
{
    ServiceInstance *victim = findInstance(instanceId);
    if (!victim || victim->draining())
        return false;

    // Never break the pipeline: at least one live instance must remain.
    if (instances().size() <= 1)
        return false;

    victim->setDraining(true);

    if (!redirectTo || redirectTo->draining() ||
        redirectTo == victim) {
        // Default to the least-loaded live peer.
        redirectTo = nullptr;
        std::size_t best = SIZE_MAX;
        for (auto *inst : instances()) {
            if (inst->queueLength() < best) {
                best = inst->queueLength();
                redirectTo = inst;
            }
        }
    }
    if (!redirectTo)
        panic("stage %s: withdraw with no redirect target", name_.c_str());

    for (auto &pending : victim->drainWaiting())
        redirectTo->adopt(std::move(pending));

    // Release immediately when idle; otherwise the reap after the final
    // completion takes care of it.
    if (victim->idleAndEmpty())
        sim_->scheduleAfter(SimTime::zero(), [this]() { reapDrained(); });
    return true;
}

void
Stage::submit(QueryPtr q)
{
    if (kind_ == StageKind::FanOut) {
        submitFanOut(std::move(q));
        return;
    }
    // During a crash outage arrivals are parked, not dropped: the next
    // launchInstance() replays the hold queue in arrival order.
    liveScratch_.clear();
    liveInstances(liveScratch_);
    if (crashOutage_ && liveScratch_.empty()) {
        holdQueue_.push_back(PendingQuery{std::move(q), sim_->now()});
        return;
    }
    ServiceInstance *target = dispatcher_.pick(liveScratch_);
    if (!target)
        panic("stage %s has no dispatchable instance", name_.c_str());
    target->enqueue(std::move(q));
}

void
Stage::submitFanOut(QueryPtr q)
{
    liveScratch_.clear();
    liveInstances(liveScratch_);
    const std::size_t leaves = liveScratch_.size();
    if (leaves == 0)
        panic("fan-out stage %s has no live instance", name_.c_str());
    if (referenceShards_ <= 0)
        fatal("fan-out stage %s used before configureFanOut()",
              name_.c_str());

    // Corpus partitioning: per-shard demand is quoted at the reference
    // leaf count; with more (fewer) live leaves each shard shrinks
    // (grows) proportionally.
    const double shardScale = static_cast<double>(referenceShards_) /
        static_cast<double>(leaves);

    q->setOutstandingShards(static_cast<int>(leaves));
    ++fanOutResident_;
    int shardIndex = 0;
    for (auto *inst : liveScratch_) {
        PendingQuery shard;
        shard.query = q;
        shard.enqueued = sim_->now();
        shard.workScale = shardScale *
            (shardCv_ > 0.0 ? shardRng_.lognormal(shardLognormal_) : 1.0);
        shard.shardIndex = shardIndex++;
        shard.shardCount = static_cast<int>(leaves);
        inst->adopt(std::move(shard));
    }
}

std::vector<ServiceInstance *>
Stage::instances() const
{
    std::vector<ServiceInstance *> out;
    out.reserve(pool_.size());
    for (const auto &inst : pool_)
        if (!inst->draining())
            out.push_back(inst.get());
    return out;
}

void
Stage::liveInstances(std::vector<ServiceInstance *> &out) const
{
    for (const auto &inst : pool_)
        if (!inst->draining())
            out.push_back(inst.get());
}

std::vector<ServiceInstance *>
Stage::allInstances() const
{
    std::vector<ServiceInstance *> out;
    out.reserve(pool_.size());
    allInstances(out);
    return out;
}

void
Stage::allInstances(std::vector<ServiceInstance *> &out) const
{
    for (const auto &inst : pool_)
        out.push_back(inst.get());
}

std::size_t
Stage::numLiveInstances() const
{
    std::size_t n = 0;
    for (const auto &inst : pool_)
        n += inst->draining() ? 0 : 1;
    return n;
}

ServiceInstance *
Stage::findInstance(std::int64_t instanceId) const
{
    for (const auto &inst : pool_)
        if (inst->id() == instanceId)
            return inst.get();
    return nullptr;
}

std::size_t
Stage::totalQueueLength() const
{
    std::size_t total = 0;
    for (const auto &inst : pool_)
        if (!inst->draining())
            total += inst->queueLength();
    return total;
}

void
Stage::onInstanceComplete(QueryPtr q)
{
    // Defer reaping so we never destroy an instance while its completion
    // handler is still on the stack.
    sim_->scheduleAfter(SimTime::zero(), [this]() { reapDrained(); });

    if (kind_ == StageKind::FanOut) {
        // The query leaves the stage only when its last shard returns.
        if (q->outstandingShards() <= 0)
            panic("fan-out stage %s: completion for query %lld with no "
                  "shard outstanding",
                  name_.c_str(), static_cast<long long>(q->id()));
        if (q->shardReturned() > 0)
            return;
        --fanOutResident_;
    }
    if (onComplete_)
        onComplete_(std::move(q));
}

void
Stage::reapDrained()
{
    for (auto it = pool_.begin(); it != pool_.end();) {
        auto &inst = *it;
        if (inst->draining() && inst->idleAndEmpty()) {
            chip_->core(inst->coreId()).setFreqChangeListener(nullptr);
            chip_->releaseCore(inst->coreId());
            it = pool_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace pc
