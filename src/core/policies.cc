#include "core/policies.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pc {

namespace actuate {

bool
frequencyBoost(ControlContext &ctx, const InstanceSnapshot &bn,
               int toLevel)
{
    const int cur = ctx.cpufreq->getLevel(bn.coreId);
    if (toLevel <= cur)
        return false;
    if (!ctx.budget->updateLevel(bn.instanceId, toLevel))
        return false;
    ctx.cpufreq->setLevel(bn.coreId, toLevel);
    // Read back through PERF_STATUS: a dropped PERF_CTL write (fault
    // injection / flaky hardware) leaves the core at its old operating
    // point, and holding the reservation would leak budget forever.
    // Reconcile the ledger to what the hardware actually runs at.
    const int actual = ctx.cpufreq->getLevel(bn.coreId);
    if (actual != toLevel) {
        if (!ctx.budget->updateLevel(bn.instanceId, actual))
            panic("budget rejected actuation-failure reconciliation");
        if (ctx.actuationFailures)
            ctx.actuationFailures->add();
        return false;
    }
    emitDecision(ctx.telemetry, ctx.sim->now(),
                 DecisionKind::FrequencyBoost, bn.name, toLevel);
    ctx.boostedStages.push_back(bn.stageIndex);
    return true;
}

ServiceInstance *
instanceBoost(ControlContext &ctx, const InstanceSnapshot &bn)
{
    const auto &model = ctx.budget->model();
    const int cloneLevel = bn.level;
    if (!ctx.budget->canAfford(model.activeWatts(cloneLevel)))
        return nullptr;

    auto &stage = ctx.app->stage(bn.stageIndex);
    ServiceInstance *clone = stage.launchInstance(cloneLevel);
    if (!clone)
        return nullptr; // chip fully occupied
    if (!ctx.budget->allocate(clone->id(), cloneLevel))
        panic("budget rejected an affordable instance launch");

    // Work stealing: offload half of the bottleneck's waiting queue.
    ServiceInstance *victim = stage.findInstance(bn.instanceId);
    if (victim) {
        for (auto &pending : victim->stealHalfQueue())
            clone->adopt(std::move(pending));
    }
    emitDecision(ctx.telemetry, ctx.sim->now(),
                 DecisionKind::InstanceLaunch, clone->name(), cloneLevel);
    ctx.boostedStages.push_back(bn.stageIndex);
    return clone;
}

bool
stepDown(ControlContext &ctx, const InstanceSnapshot &inst)
{
    const int cur = ctx.cpufreq->getLevel(inst.coreId);
    if (cur <= 0)
        return false;
    if (!ctx.budget->updateLevel(inst.instanceId, cur - 1))
        panic("budget rejected a frequency step-down");
    ctx.cpufreq->setLevel(inst.coreId, cur - 1);
    const int actual = ctx.cpufreq->getLevel(inst.coreId);
    if (actual != cur - 1) {
        // The core still runs at its old frequency; re-reserve the
        // power it actually draws instead of under-accounting it.
        if (!ctx.budget->updateLevel(inst.instanceId, actual))
            panic("budget rejected step-down reconciliation");
        if (ctx.actuationFailures)
            ctx.actuationFailures->add();
        return false;
    }
    emitDecision(ctx.telemetry, ctx.sim->now(),
                 DecisionKind::FrequencyStepDown, inst.name, cur - 1);
    return true;
}

} // namespace actuate

void
FreqBoostPolicy::onInterval(ControlContext &ctx)
{
    if (ctx.ranked.empty() ||
        ctx.balanceGap() < ctx.cfg->balanceThresholdSec) {
        if (!ctx.ranked.empty())
            emitDecision(ctx.telemetry, ctx.sim->now(),
                         DecisionKind::IntervalSkipped, "balance",
                         ctx.balanceGap());
        return;
    }
    const InstanceSnapshot bn = ctx.ranked.back();
    const auto &model = ctx.budget->model();
    const int maxLevel = model.ladder().maxLevel();
    if (bn.level >= maxLevel)
        return;

    const Watts needed = model.deltaWatts(bn.level, maxLevel);
    if (ctx.budget->headroom() < needed) {
        const Watts got = ctx.realloc->recycle(
            needed - ctx.budget->headroom(), ctx.ranked,
            bn.instanceId);
        if (got.value() > 0.0)
            emitDecision(ctx.telemetry, ctx.sim->now(),
                         DecisionKind::PowerRecycle, bn.name,
                         got.value());
    }
    const int toLevel =
        ctx.engine->affordableLevel(bn, ctx.budget->headroom());
    actuate::frequencyBoost(ctx, bn, toLevel);
}

void
InstBoostPolicy::onInterval(ControlContext &ctx)
{
    if (ctx.ranked.empty() ||
        ctx.balanceGap() < ctx.cfg->balanceThresholdSec) {
        if (!ctx.ranked.empty())
            emitDecision(ctx.telemetry, ctx.sim->now(),
                         DecisionKind::IntervalSkipped, "balance",
                         ctx.balanceGap());
        return;
    }
    const InstanceSnapshot bn = ctx.ranked.back();
    const auto &model = ctx.budget->model();
    const Watts cost = model.activeWatts(bn.level);

    if (ctx.budget->headroom() < cost) {
        const Watts got = ctx.realloc->recycle(
            cost - ctx.budget->headroom(), ctx.ranked, bn.instanceId);
        if (got.value() > 0.0)
            emitDecision(ctx.telemetry, ctx.sim->now(),
                         DecisionKind::PowerRecycle, bn.name,
                         got.value());
    }
    // When not even recycling everything funds a clone the policy is
    // stuck (the Figure 11(b) plateau) — no fallback by design.
    if (ctx.budget->headroom() >= cost)
        actuate::instanceBoost(ctx, bn);
}

void
PowerChiefPolicy::onInterval(ControlContext &ctx)
{
    if (ctx.ranked.empty() ||
        ctx.balanceGap() < ctx.cfg->balanceThresholdSec) {
        if (!ctx.ranked.empty())
            emitDecision(ctx.telemetry, ctx.sim->now(),
                         DecisionKind::IntervalSkipped, "balance",
                         ctx.balanceGap());
        return;
    }

    BoostDecision decision = ctx.engine->selectBoosting(ctx.ranked);
    if (decision.recycledWatts.value() > 0.0)
        emitDecision(ctx.telemetry, ctx.sim->now(),
                     DecisionKind::PowerRecycle, ctx.ranked.back().name,
                     decision.recycledWatts.value());
    const InstanceSnapshot bn = ctx.ranked.back();

    switch (decision.kind) {
      case BoostKind::Instance:
        if (actuate::instanceBoost(ctx, bn)) {
            ++instBoosts_;
        } else {
            // Chip occupancy can still block the launch; fall back to
            // spending the same power on DVFS.
            const int toLevel = ctx.engine->affordableLevel(
                bn, ctx.budget->headroom());
            if (actuate::frequencyBoost(ctx, bn, toLevel))
                ++freqBoosts_;
        }
        break;
      case BoostKind::Frequency:
        if (actuate::frequencyBoost(ctx, bn, decision.toLevel))
            ++freqBoosts_;
        break;
      case BoostKind::None:
        break;
    }
}

FixedStageBoostPolicy::FixedStageBoostPolicy(int stageIndex,
                                             BoostKind technique)
    : stageIndex_(stageIndex), technique_(technique)
{
    if (technique == BoostKind::None)
        fatal("fixed-stage policy needs a concrete technique");
}

void
FixedStageBoostPolicy::onInterval(ControlContext &ctx)
{
    // Restrict the ranking to the designated stage and boost its worst
    // instance, recycling from everything else.
    const InstanceSnapshot *bn = nullptr;
    for (const auto &snap : ctx.ranked)
        if (snap.stageIndex == stageIndex_)
            bn = &snap; // ranking is ascending; keep the last match
    if (!bn)
        return;

    const auto &model = ctx.budget->model();
    if (technique_ == BoostKind::Frequency) {
        const int maxLevel = model.ladder().maxLevel();
        if (bn->level >= maxLevel)
            return;
        const Watts needed = model.deltaWatts(bn->level, maxLevel);
        if (ctx.budget->headroom() < needed) {
            ctx.realloc->recycle(needed - ctx.budget->headroom(),
                                 ctx.ranked, bn->instanceId);
        }
        const int toLevel =
            ctx.engine->affordableLevel(*bn, ctx.budget->headroom());
        actuate::frequencyBoost(ctx, *bn, toLevel);
    } else {
        const Watts cost = model.activeWatts(bn->level);
        if (ctx.budget->headroom() < cost) {
            ctx.realloc->recycle(cost - ctx.budget->headroom(),
                                 ctx.ranked, bn->instanceId);
        }
        if (ctx.budget->headroom() >= cost)
            actuate::instanceBoost(ctx, *bn);
    }
}

PegasusPolicy::PegasusPolicy(double qosTargetSec, bool useTail)
    : target_(qosTargetSec), useTail_(useTail)
{
    if (target_ <= 0)
        fatal("Pegasus requires a positive QoS target");
}

double
PegasusPolicy::latencySignal(const ControlContext &ctx) const
{
    if (!ctx.e2eLatency || ctx.e2eLatency->empty())
        return 0.0;
    return useTail_ ? ctx.e2eLatency->quantile(0.99)
                    : ctx.e2eLatency->mean();
}

void
PegasusPolicy::onInterval(ControlContext &ctx)
{
    const double lat = latencySignal(ctx);
    if (lat <= 0.0)
        return;
    const auto &ladder = ctx.budget->model().ladder();

    if (lat >= target_) {
        // SLO in danger: race every instance to the maximum frequency.
        for (const auto &snap : ctx.ranked)
            actuate::frequencyBoost(ctx, snap, ladder.maxLevel());
        return;
    }
    if (lat >= kHoldBand * target_)
        return; // inside the hold band

    // Comfortable slack: uniform single-step de-boost. Pegasus treats
    // instances indifferently (§8.4) — every stage steps together.
    for (const auto &snap : ctx.ranked)
        actuate::stepDown(ctx, snap);
}

PowerChiefConservePolicy::PowerChiefConservePolicy(double qosTargetSec,
                                                   bool useTail)
    : target_(qosTargetSec), useTail_(useTail)
{
    if (target_ <= 0)
        fatal("conserve policy requires a positive QoS target");
}

double
PowerChiefConservePolicy::latencySignal(const ControlContext &ctx) const
{
    if (!ctx.e2eLatency || ctx.e2eLatency->empty())
        return 0.0;
    return useTail_ ? ctx.e2eLatency->quantile(0.99)
                    : ctx.e2eLatency->mean();
}

void
PowerChiefConservePolicy::onInterval(ControlContext &ctx)
{
    const double lat = latencySignal(ctx);
    if (lat <= 0.0 || ctx.ranked.empty())
        return;

    if (lat >= kBoostBand * target_) {
        // QoS threatened: run the standard adaptive boost on the
        // bottleneck (power conservation is the inverse of boosting).
        BoostDecision decision = ctx.engine->selectBoosting(ctx.ranked);
        const InstanceSnapshot bn = ctx.ranked.back();
        if (decision.kind == BoostKind::Instance) {
            if (!actuate::instanceBoost(ctx, bn)) {
                actuate::frequencyBoost(
                    ctx, bn,
                    ctx.engine->affordableLevel(
                        bn, ctx.budget->headroom()));
            }
        } else if (decision.kind == BoostKind::Frequency) {
            actuate::frequencyBoost(ctx, bn, decision.toLevel);
        }
        return;
    }
    if (lat >= kConserveBand * target_)
        return; // hold

    // Ample slack: de-boost the *fastest* instance across stages — the
    // cross-stage awareness Pegasus lacks. Withdraws of underutilized
    // instances are handled by the command center's withdraw monitor.
    for (const auto &snap : ctx.ranked) {
        if (actuate::stepDown(ctx, snap))
            break;
    }
}

} // namespace pc
