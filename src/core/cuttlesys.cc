#include "core/cuttlesys.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "obs/audit.h"

namespace pc {

namespace {

/** EWMA smoothing of the observed per-config stage delay. */
constexpr double kEwmaAlpha = 0.5;

/** A stage's current/candidate (count, level) configuration. */
struct Config
{
    int count = 0;
    int level = 0;
};

struct StageGroup
{
    /** Snapshots in ascending metric order (back = stage bottleneck). */
    std::vector<const InstanceSnapshot *> instances;
    Config cfg;
};

/** Modelled power of a full per-stage allocation. */
double
allocationWatts(const std::map<int, Config> &plan, const PowerModel &model)
{
    double watts = 0.0;
    for (const auto &[stage, cfg] : plan)
        watts += cfg.count * model.activeWatts(cfg.level).value();
    return watts;
}

} // namespace

CuttleSysPolicy::CuttleSysPolicy(int maxInstancesPerStage,
                                 int exploreBudget)
    : maxPerStage_(maxInstancesPerStage), exploreBudget_(exploreBudget)
{
    if (maxPerStage_ < 1)
        fatal("CuttleSys needs at least one instance per stage");
    if (exploreBudget_ < 0)
        fatal("CuttleSys exploration budget must be non-negative");
}

std::size_t
CuttleSysPolicy::observedConfigs() const
{
    std::size_t n = 0;
    for (const auto &[stage, table] : observed_)
        for (const auto &[count, row] : table)
            n += row.size();
    return n;
}

double
CuttleSysPolicy::predictSec(int stage, const ConfigTable &table,
                            const SpeedupTable &speedups, int count,
                            int level) const
{
    (void)stage;
    if (table.empty())
        return std::numeric_limits<double>::infinity();

    // Row base: the count's delay with the frequency column factor
    // divided out, averaged over the levels this count was observed at.
    const auto rowBase = [&](int c) {
        const auto &row = table.at(c);
        double base = 0.0;
        for (const auto &[lvl, delay] : row)
            base += delay / speedups.at(lvl);
        return base / static_cast<double>(row.size());
    };

    double base;
    if (table.count(count)) {
        base = rowBase(count);
    } else {
        // Collaborative fill-in: nearest visited count, rank-1 scaled
        // by the count ratio (delay shrinks as instances are added).
        int nearest = table.begin()->first;
        for (const auto &[c, row] : table)
            if (std::abs(c - count) < std::abs(nearest - count))
                nearest = c;
        base = rowBase(nearest) * (static_cast<double>(nearest) /
                                   static_cast<double>(count));
    }
    return base * speedups.at(level);
}

void
CuttleSysPolicy::onInterval(ControlContext &ctx)
{
    ++intervals_;
    if (ctx.ranked.empty())
        return;
    const auto &model = ctx.budget->model();
    const double headroomBefore = ctx.budget->headroom().value();

    // Group the ranking by stage; the stage's configuration is its
    // instance count and the bottleneck instance's level (re-levelling
    // below drives all of a stage's instances to the same level).
    std::map<int, StageGroup> groups;
    for (const auto &snap : ctx.ranked)
        groups[snap.stageIndex].instances.push_back(&snap);
    for (auto &[stage, group] : groups) {
        group.cfg.count = static_cast<int>(group.instances.size());
        group.cfg.level = group.instances.back()->level;
    }

    // Observe the current configuration: the stage's delay proxy is
    // its worst instance metric (Eq. 1), EWMA-smoothed per config.
    for (const auto &[stage, group] : groups) {
        const double delay = group.instances.back()->metric;
        if (delay <= 0.0)
            continue;
        double &cell =
            observed_[stage][group.cfg.count][group.cfg.level];
        cell = cell == 0.0 ? delay
                           : kEwmaAlpha * delay +
                (1.0 - kEwmaAlpha) * cell;
    }

    // Power the planner may re-arrange: the cap minus reservations of
    // instances outside the ranking (stale-skipped or draining).
    double plannedNow = 0.0;
    for (const auto &snap : ctx.ranked)
        plannedNow += model.activeWatts(snap.level).value();
    const double planBudget = ctx.budget->cap().value() -
        (ctx.budget->allocated().value() - plannedNow);

    std::map<int, Config> plan;
    for (const auto &[stage, group] : groups)
        plan[stage] = group.cfg;

    const int ladderMax = model.ladder().maxLevel();
    const auto stageMaxLevel = [&](int stage) {
        return std::min(ladderMax,
                        ctx.speedups->stage(stage).numLevels() - 1);
    };
    const auto objective = [&](const std::map<int, Config> &p) {
        double worst = 0.0;
        for (const auto &[stage, cfg] : p) {
            const double t =
                predictSec(stage, observed_[stage],
                           ctx.speedups->stage(stage), cfg.count,
                           cfg.level);
            worst = std::max(worst, t);
        }
        return worst;
    };

    bool explore = false;
    std::vector<std::pair<int, Config>> moves;
    if (intervals_ <= static_cast<std::uint64_t>(exploreBudget_)) {
        // Deterministic counter-driven exploration: visit the stages
        // round-robin, alternating a count-up and a level-down probe so
        // the config table gains both a new row and a new column.
        explore = true;
        std::vector<int> stageIds;
        for (const auto &[stage, group] : groups)
            stageIds.push_back(stage);
        const std::size_t idx = static_cast<std::size_t>(
            (intervals_ - 1) % stageIds.size());
        const int stage = stageIds[idx];
        const bool countProbe =
            ((intervals_ - 1) / stageIds.size()) % 2 == 0;
        Config next = plan[stage];
        if (countProbe && next.count < maxPerStage_) {
            ++next.count;
        } else if (next.level > 0) {
            --next.level;
        } else if (next.count < maxPerStage_) {
            ++next.count;
        }
        if (next.count != plan[stage].count ||
            next.level != plan[stage].level) {
            std::map<int, Config> candidate = plan;
            candidate[stage] = next;
            if (allocationWatts(candidate, model) <=
                planBudget + 1e-9) {
                plan = std::move(candidate);
                moves.emplace_back(stage, next);
            }
        }
    } else {
        // Exploitation: up to two greedy single-knob moves, each the
        // best predicted reduction of the worst stage delay that still
        // fits the cap; at most one move per stage per interval.
        double best = objective(plan);
        for (int round = 0; round < 2; ++round) {
            int bestStage = -1;
            Config bestCfg;
            for (const auto &[stage, group] : groups) {
                bool alreadyMoved = false;
                for (const auto &[s, c] : moves)
                    if (s == stage)
                        alreadyMoved = true;
                if (alreadyMoved)
                    continue;
                const Config cur = plan[stage];
                const Config candidates[] = {
                    {cur.count + 1, cur.level},
                    {cur.count - 1, cur.level},
                    {cur.count, cur.level + 1},
                    {cur.count, cur.level - 1},
                };
                for (const Config &cand : candidates) {
                    if (cand.count < 1 || cand.count > maxPerStage_)
                        continue;
                    if (cand.level < 0 ||
                        cand.level > stageMaxLevel(stage))
                        continue;
                    std::map<int, Config> next = plan;
                    next[stage] = cand;
                    if (allocationWatts(next, model) >
                        planBudget + 1e-9)
                        continue;
                    const double obj = objective(next);
                    if (obj < best - 1e-12) {
                        best = obj;
                        bestStage = stage;
                        bestCfg = cand;
                    }
                }
            }
            if (bestStage < 0)
                break;
            plan[bestStage] = bestCfg;
            moves.emplace_back(bestStage, bestCfg);
        }
    }

    // Actuate the moves. Level changes drive every instance of the
    // stage; count changes go through the shared launch/withdraw
    // machinery so queue hand-off and the budget ledger stay exact.
    std::uint64_t up = 0, down = 0, launches = 0, withdraws = 0;
    for (const auto &[stage, target] : moves) {
        StageGroup &group = groups[stage];
        const Config cur = group.cfg;

        if (target.count > cur.count) {
            const InstanceSnapshot bn = *group.instances.back();
            if (actuate::instanceBoost(ctx, bn))
                ++launches;
        } else if (target.count < cur.count &&
                   group.instances.size() > 1) {
            // Withdraw the stage's fastest instance, handing its queue
            // to the bottleneck peer (mirrors the withdraw monitor).
            const InstanceSnapshot &victim = *group.instances.front();
            auto &appStage = ctx.app->stage(stage);
            ServiceInstance *redirect =
                appStage.findInstance(group.instances.back()->instanceId);
            if (redirect && redirect->draining())
                redirect = nullptr;
            if (appStage.withdrawInstance(victim.instanceId, redirect)) {
                ctx.budget->release(victim.instanceId);
                ++withdraws;
                emitDecision(ctx.telemetry, ctx.sim->now(),
                             DecisionKind::InstanceWithdraw,
                             victim.name);
            }
        }

        if (target.level != cur.level) {
            for (const auto *snap : group.instances) {
                if (target.count < cur.count &&
                    snap == group.instances.front())
                    continue; // the withdrawn victim
                while (ctx.cpufreq->getLevel(snap->coreId) >
                       target.level) {
                    if (!actuate::stepDown(ctx, *snap))
                        break;
                    ++down;
                }
                const int at = ctx.cpufreq->getLevel(snap->coreId);
                if (at < target.level &&
                    actuate::frequencyBoost(ctx, *snap, target.level))
                    up += static_cast<std::uint64_t>(target.level - at);
            }
        }
    }

    if (ctx.audit) {
        AuditRecord rec;
        rec.planStepsUp = up;
        rec.planStepsDown = down;
        rec.planLaunches = launches;
        rec.planWithdraws = withdraws;
        rec.planExplore = explore;
        rec.planPlannedWatts = allocationWatts(plan, model);
        const double obj = objective(plan);
        rec.planObjectiveSec = std::isfinite(obj) ? obj : 0.0;
        rec.headroomBeforeWatts = headroomBefore;
        rec.headroomAfterWatts = ctx.budget->headroom().value();
        ctx.audit->recordPlan(AuditDecisionKind::CuttleSysPlan,
                              std::move(rec));
    }
}

} // namespace pc
