#include "app/dispatcher.h"

#include <limits>

#include "obs/telemetry.h"

namespace pc {

Dispatcher::Dispatcher(DispatchPolicy policy) : policy_(policy) {}

void
Dispatcher::setTelemetry(Telemetry *telemetry, int stageIndex)
{
    if (!telemetry) {
        picks_ = nullptr;
        queueDepth_ = nullptr;
        return;
    }
    const std::string prefix =
        "dispatch.stage" + std::to_string(stageIndex) + ".";
    picks_ = &telemetry->metrics().counter(prefix + "picks_total");
    queueDepth_ = &telemetry->metrics().histogram(prefix + "queue_depth");
}

ServiceInstance *
Dispatcher::pick(const std::vector<ServiceInstance *> &instances)
{
    // Reused across picks: one stage submit per hop must not allocate.
    eligible_.clear();
    for (auto *inst : instances)
        if (inst && !inst->draining())
            eligible_.push_back(inst);
    if (eligible_.empty())
        return nullptr;

    ServiceInstance *chosen = nullptr;
    switch (policy_) {
      case DispatchPolicy::RoundRobin:
        chosen = pickRoundRobin(eligible_);
        break;
      case DispatchPolicy::JoinShortestQueue:
        chosen = pickShortestQueue(eligible_);
        break;
      case DispatchPolicy::WeightedFastest:
        chosen = pickWeighted(eligible_);
        break;
    }
    if (chosen) {
        if (picks_)
            picks_->add();
        if (queueDepth_)
            queueDepth_->add(static_cast<double>(chosen->queueLength()));
    }
    return chosen;
}

ServiceInstance *
Dispatcher::pickRoundRobin(const std::vector<ServiceInstance *> &eligible)
{
    ServiceInstance *chosen = eligible[rrNext_ % eligible.size()];
    ++rrNext_;
    return chosen;
}

ServiceInstance *
Dispatcher::pickShortestQueue(const std::vector<ServiceInstance *> &eligible)
{
    ServiceInstance *best = nullptr;
    std::size_t bestLen = std::numeric_limits<std::size_t>::max();
    for (auto *inst : eligible) {
        const std::size_t len = inst->queueLength();
        if (len < bestLen) {
            bestLen = len;
            best = inst;
        }
    }
    return best;
}

ServiceInstance *
Dispatcher::pickWeighted(const std::vector<ServiceInstance *> &eligible)
{
    // Queue length normalized by processing speed: a 2.4 GHz instance
    // drains its queue twice as fast as a 1.2 GHz one.
    ServiceInstance *best = nullptr;
    double bestScore = std::numeric_limits<double>::infinity();
    for (auto *inst : eligible) {
        const double speed = inst->frequency().value();
        const double score =
            (static_cast<double>(inst->queueLength()) + 1.0) / speed;
        if (score < bestScore) {
            bestScore = score;
            best = inst;
        }
    }
    return best;
}

} // namespace pc
