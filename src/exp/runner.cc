#include "exp/runner.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/cuttlesys.h"
#include "core/fastcap.h"

#include "common/logging.h"
#include "core/command_center.h"
#include "faults/injector.h"
#include "hal/rapl.h"
#include "obs/telemetry.h"
#include "rpc/bus.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "workloads/profiler.h"

namespace pc {

double
RunResult::improvement(double baseline, double value)
{
    if (value <= 0.0)
        return 0.0;
    return baseline / value;
}

ExperimentRunner::ExperimentRunner(bool recordTraces,
                                   SimTime sampleInterval,
                                   bool attribution, bool collectAudit,
                                   SloConfig slo, bool collectCritPath)
    : recordTraces_(recordTraces), sampleInterval_(sampleInterval),
      attribution_(attribution), collectAudit_(collectAudit),
      slo_(std::move(slo)), collectCritPath_(collectCritPath)
{
}

std::unique_ptr<ControlPolicy>
makePolicyFor(const Scenario &sc)
{
    switch (sc.policy) {
      case PolicyKind::StageAgnostic:
        return std::make_unique<StageAgnosticPolicy>();
      case PolicyKind::FreqBoost:
        return std::make_unique<FreqBoostPolicy>();
      case PolicyKind::InstBoost:
        return std::make_unique<InstBoostPolicy>();
      case PolicyKind::PowerChief:
        return std::make_unique<PowerChiefPolicy>();
      case PolicyKind::FixedStage:
        return std::make_unique<FixedStageBoostPolicy>(
            sc.fixedStage, sc.fixedTechnique);
      case PolicyKind::Pegasus:
        return std::make_unique<PegasusPolicy>(sc.qosTargetSec,
                                               sc.qosUseTail);
      case PolicyKind::PowerChiefConserve:
        return std::make_unique<PowerChiefConservePolicy>(
            sc.qosTargetSec, sc.qosUseTail);
      case PolicyKind::FastCap:
        return std::make_unique<FastCapPolicy>();
      case PolicyKind::CuttleSys: {
        // Give the config search room up to an even share of the chip,
        // clamped so one stage can never crowd out the others.
        const int stages = std::max<int>(
            1, static_cast<int>(sc.initialCounts.size()));
        const int maxPerStage =
            std::clamp(sc.numCores / stages, 1, 8);
        return std::make_unique<CuttleSysPolicy>(maxPerStage);
      }
      case PolicyKind::Count:
        break;
    }
    fatal("unknown policy kind");
}

RunAuditSummary
summarizeAudit(const AuditLog &audit)
{
    RunAuditSummary sum;
    sum.collected = true;
    sum.mapePct = audit.mapePct();
    sum.mapeFreqPct = audit.mapePct(AuditBoostKind::Frequency);
    sum.mapeInstPct = audit.mapePct(AuditBoostKind::Instance);
    sum.flips = audit.flips();
    for (const auto &rec : audit.records()) {
        switch (rec.kind) {
          case AuditDecisionKind::Select:
            ++sum.selects;
            if (rec.scored)
                ++sum.scored;
            break;
          case AuditDecisionKind::Recycle: ++sum.recycles; break;
          case AuditDecisionKind::Withdraw: ++sum.withdraws; break;
          case AuditDecisionKind::StaleSkip: ++sum.staleSkips; break;
          case AuditDecisionKind::FastCapPlan:
          case AuditDecisionKind::CuttleSysPlan:
            ++sum.plans;
            break;
          case AuditDecisionKind::Misboost:
            ++sum.misboosts;
            break;
          case AuditDecisionKind::ClusterRebalance:
            ++sum.clusterRebalances;
            break;
          case AuditDecisionKind::ObsAlert:
          case AuditDecisionKind::Count:
            break;
        }
    }
    return sum;
}

void
checkRunInvariants(const MultiStageApp &app, const PowerBudget &budget,
                   int node)
{
    const std::string where =
        node < 0 ? "" : " on node " + std::to_string(node);
    if (app.completed() + app.residentQueries() != app.submitted())
        fatal("run broke query conservation%s: "
              "%llu submitted != %llu completed + %llu resident",
              where.c_str(),
              static_cast<unsigned long long>(app.submitted()),
              static_cast<unsigned long long>(app.completed()),
              static_cast<unsigned long long>(app.residentQueries()));
    for (const auto *inst : app.allInstances()) {
        if (inst->draining())
            continue;
        if (budget.levelOf(inst->id()) != inst->level())
            fatal("run broke the budget ledger%s: instance %s reserved "
                  "level %d but runs at %d",
                  where.c_str(), inst->name().c_str(),
                  budget.levelOf(inst->id()), inst->level());
    }
}

RunCritPathSummary
summarizeCritPath(const CritPathCollector &cp)
{
    RunCritPathSummary sum;
    sum.collected = true;
    sum.queries = cp.profiledQueries();
    sum.scoredIntervals = cp.scoredIntervals();
    sum.agreeIntervals = cp.agreeIntervals();
    sum.boostIntervals = cp.boostIntervals();
    sum.misboosts = cp.misboosts();
    sum.agreementRate = cp.agreementRate();
    sum.meanShorteningPct = cp.meanShorteningPct();
    sum.stageShare = cp.stageShareMeans();
    return sum;
}

RunResult
ExperimentRunner::run(const Scenario &sc,
                      const TelemetryConfig *telemetry) const
{
    // Topology knobs are validated before any system is built, with
    // the offending field named — same fatal style the CLI and config
    // loader use at parse time, so a bad scenario dies identically no
    // matter which door it came in through.
    if (const std::string err = scenarioTopologyError(sc); !err.empty())
        fatal("scenario '%s': %s", sc.name.c_str(), err.c_str());
    if (sc.nodeGroups > 1)
        return runSharded(sc, telemetry);

    RunResult result;
    result.scenario = sc.name;

    // The run owns its telemetry so concurrent sweep runs never share
    // mutable observability state. Audit collection rides on the same
    // bundle: it flips auditCollect on a copy of the caller's config
    // (or a fresh one) without touching any output path.
    TelemetryConfig effective = telemetry ? *telemetry
                                          : TelemetryConfig{};
    if (collectAudit_)
        effective.auditCollect = true;
    if (collectCritPath_)
        effective.critpathCollect = true;
    std::optional<Telemetry> telemetryStore;
    if (effective.anyEnabled())
        telemetryStore.emplace(effective);
    Telemetry *tel = telemetryStore ? &*telemetryStore : nullptr;

    // Flush-on-fatal: if the run aborts on a conservation or ledger
    // fatal() below, the telemetry collected so far is written out
    // instead of vanishing with the process — partial traces are what
    // post-mortems need most. Unregistered on normal return.
    std::optional<FatalFlushGuard> flushGuard;
    if (tel) {
        flushGuard.emplace(
            [tel, &sc]() { tel->writeOutputs(sc.name); });
    }

    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    const auto &ladder = model.ladder();
    const int level = sc.initialLevel == -1 ? ladder.midLevel()
        : sc.initialLevel == -2              ? ladder.maxLevel()
                                             : sc.initialLevel;

    CmpChip chip(&sim, &model, sc.numCores);
    chip.setInterference(sc.interference);
    MessageBus bus(&sim);

    if (sc.initialCounts.empty())
        fatal("scenario '%s' has no initial layout", sc.name.c_str());
    auto specs = sc.workload.layout(sc.initialCounts, level);
    if (!sc.initialLevels.empty()) {
        if (sc.initialLevels.size() != specs.size())
            fatal("scenario '%s': initialLevels size mismatch",
                  sc.name.c_str());
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].initialLevel = sc.initialLevels[i];
    }
    for (auto &spec : specs)
        spec.dispatch = sc.dispatch;
    MultiStageApp app(&sim, &chip, &bus, sc.workload.name(), specs, tel);
    app.setWireReports(sc.wireReports);

    // Offline profiling step (deterministic per seed).
    const OfflineProfiler profiler;
    const SpeedupBook speedups =
        profiler.profileWorkload(sc.workload, model, sc.seed ^ 0x5eedll);

    PowerBudget budget(sc.powerBudget, &model);
    CommandCenter center(
        &sim, &bus, &chip, &app, &budget, &speedups, sc.control,
        makePolicyFor(sc),
        sc.metricFactory ? sc.metricFactory() : nullptr,
        sc.recycleFactory ? sc.recycleFactory() : nullptr);
    center.setTelemetry(tel);
    if (intervalProbe_)
        center.setIntervalCallback(intervalProbe_);
    center.start();

    // Fault-injection layer (chaos runs only). Armed before any load
    // arrives; an inactive plan constructs nothing at all.
    std::optional<FaultInjector> injector;
    if (sc.faults.active) {
        injector.emplace(&sim, &bus, &app, &chip, &budget, sc.faults,
                         sc.seed, tel);
        injector->arm();
    }

    // End-to-end latency histograms mirror the printed RunResult
    // numbers: same samples, same warmup filter, so the dumped p99
    // matches p99LatencySec exactly.
    Histogram *e2eHist = nullptr;
    std::vector<Histogram *> stageWaitHist;
    std::vector<Histogram *> stageServeHist;
    if (tel) {
        MetricsRegistry &metrics = tel->metrics();
        e2eHist = &metrics.histogram("latency.e2e_sec");
        for (int s = 0; s < app.numStages(); ++s) {
            const std::string prefix =
                "latency.stage" + std::to_string(s) + ".";
            stageWaitHist.push_back(
                &metrics.histogram(prefix + "wait_sec"));
            stageServeHist.push_back(
                &metrics.histogram(prefix + "serve_sec"));
        }
    }

    // SLO tracking over the same post-warmup completions the printed
    // latency numbers use. Auto target: the scenario's QoS target when
    // it has one, else 3x the summed per-stage mean service times (a
    // "healthy pipeline" envelope independent of the realized load).
    std::optional<SloTracker> sloTracker;
    Gauge *sloFastGauge = nullptr;
    Gauge *sloSlowGauge = nullptr;
    if (slo_.enabled) {
        double target = slo_.targetSec;
        if (target <= 0.0) {
            if (sc.qosTargetSec > 0.0) {
                target = sc.qosTargetSec;
            } else {
                double serviceSum = 0.0;
                for (const auto &stage : sc.workload.stages())
                    serviceSum += stage.meanServiceSec;
                target = 3.0 * serviceSum;
            }
        }
        sloTracker.emplace(slo_, target);
        if (tel) {
            sloFastGauge = &tel->metrics().gauge("slo.fast_burn");
            sloSlowGauge = &tel->metrics().gauge("slo.slow_burn");
        }
    }

    // Completion statistics, ignoring the warmup prefix.
    ExactPercentile latency;
    StreamingStats latencyStats;
    std::vector<StreamingStats> queuingByStage(
        static_cast<std::size_t>(app.numStages()));
    std::vector<StreamingStats> servingByStage(
        static_cast<std::size_t>(app.numStages()));
    std::optional<TailAttributionCollector> attribution;
    if (attribution_)
        attribution.emplace(app.numStages());
    // Reused across completions so the per-query stat path does not
    // allocate; assign() keeps the capacity.
    std::vector<StageSpan> spans;
    app.setCompletionSink([&](const QueryPtr &q) {
        if (tel) {
            tel->trace().recordQueryHops(*q);
            if (auto *critpath = tel->critpath())
                critpath->observeQuery(sim.now(), *q,
                                       q->arrival() >= sc.warmup);
        }
        if (q->arrival() < sc.warmup)
            return;
        const double sec = q->endToEnd().toSec();
        latency.add(sec);
        latencyStats.add(sec);
        if (sloTracker) {
            sloTracker->observe(sim.now(), sec);
            if (sloFastGauge) {
                sloFastGauge->set(sloTracker->fastBurn());
                sloSlowGauge->set(sloTracker->slowBurn());
            }
        }
        if (e2eHist)
            e2eHist->add(sec);
        if (attribution)
            spans.assign(static_cast<std::size_t>(app.numStages()),
                         StageSpan{});
        for (const auto &hop : q->hops()) {
            // Wasted hops (aborted service; faults layer) carry no
            // latency contribution — the query was re-dispatched and
            // the replacement hop holds the real queue/serve split.
            if (hop.wasted)
                continue;
            const auto s = static_cast<std::size_t>(hop.stageIndex);
            queuingByStage[s].add(hop.queuing().toSec());
            servingByStage[s].add(hop.serving().toSec());
            if (e2eHist) {
                stageWaitHist[s]->add(hop.queuing().toSec());
                stageServeHist[s]->add(hop.serving().toSec());
            }
            if (attribution) {
                spans[s].queuingSec += hop.queuing().toSec();
                spans[s].servingSec += hop.serving().toSec();
            }
        }
        if (attribution)
            attribution->addQuery(sec, spans);
        if (recordTraces_)
            result.latencySeries.append(sim.now(), sec);
    });

    // Power measurement through the RAPL code path.
    RaplReader rapl(&chip);
    if (injector)
        rapl.setFaultHook(injector->raplFaultHook());
    StreamingStats power;
    if (recordTraces_) {
        result.stageInstanceCounts.assign(
            static_cast<std::size_t>(app.numStages()),
            TimeSeries("instances"));
    }
    sim.schedulePeriodic(
        sampleInterval_, sampleInterval_, [&]() {
            const double watts = rapl.windowPower().value();
            if (sim.now() >= sc.warmup)
                power.add(watts);
            if (!recordTraces_)
                return;
            result.powerSeries.append(sim.now(), watts);
            for (int s = 0; s < app.numStages(); ++s) {
                const auto live = app.stage(s).instances();
                result.stageInstanceCounts[static_cast<std::size_t>(s)]
                    .append(sim.now(),
                            static_cast<double>(live.size()));
                for (const auto *inst : live) {
                    auto [it, inserted] =
                        result.instanceFrequencyGHz.try_emplace(
                            inst->name(),
                            TimeSeries(inst->name()));
                    it->second.append(sim.now(),
                                      inst->frequency().toGHz());
                }
            }
        });

    // Periodic registry snapshot feeding the dumped TimeSeries. A pure
    // observer event: it reads state only, so the simulation unfolds
    // identically with or without it.
    if (tel && tel->config().metricsEnabled()) {
        const SimTime interval = tel->config().metricsInterval;
        sim.schedulePeriodic(interval, interval, [tel, &app, &sim]() {
            tel->metrics().snapshot(
                sim.now(),
                {{"queries.submitted",
                  static_cast<double>(app.submitted())},
                 {"queries.completed",
                  static_cast<double>(app.completed())}});
        });
    }

    LoadGenerator gen(&sim, &app, &sc.workload, sc.load, sc.seed,
                      ladder.freqAt(0).value());
    gen.start(sc.duration);

    const Joules energyBefore = chip.totalEnergy();
    sim.runUntil(sc.duration);
    center.stop();

    checkRunInvariants(app, budget, -1);

    result.submitted = app.submitted();
    result.completed = app.completed();
    for (int s = 0; s < app.numStages(); ++s) {
        StageBreakdown breakdown;
        breakdown.avgQueuingSec =
            queuingByStage[static_cast<std::size_t>(s)].mean();
        breakdown.avgServingSec =
            servingByStage[static_cast<std::size_t>(s)].mean();
        breakdown.hops =
            servingByStage[static_cast<std::size_t>(s)].count();
        result.stageBreakdown.push_back(breakdown);
    }
    result.avgLatencySec = latencyStats.mean();
    result.p99LatencySec = latency.p99();
    result.maxLatencySec = latencyStats.max();
    result.avgPowerWatts = power.mean();
    result.energyJoules =
        (chip.totalEnergy() - energyBefore).value();
    if (attribution)
        result.tailAttribution = attribution->report();
    if (sloTracker) {
        sloTracker->finish(sc.duration);
        result.slo = sloTracker->report();
    }
    if (collectAudit_ && tel)
        result.audit = summarizeAudit(tel->audit());
    if (collectCritPath_ && tel && tel->critpath())
        result.critpath = summarizeCritPath(*tel->critpath());

    if (tel) {
        MetricsRegistry &metrics = tel->metrics();
        metrics.gauge("queries.submitted")
            .set(static_cast<double>(result.submitted));
        metrics.gauge("queries.completed")
            .set(static_cast<double>(result.completed));
        tel->writeOutputs(sc.name,
                          result.slo.collected ? &result.slo : nullptr);
    }
    return result;
}

} // namespace pc
