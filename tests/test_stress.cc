/**
 * @file
 * Kitchen-sink stress tests: every feature at once, long horizons,
 * adversarial knobs. These are slower than unit tests (still < 1 s
 * each) and exist to catch interactions no focused test exercises.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/command_center.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "hal/rapl.h"
#include "workloads/loadgen.h"
#include "workloads/profiler.h"

namespace pc {
namespace {

TEST(Stress, EverythingAtOnce)
{
    // Mixed Sirius (stage skipping) + wire reports + bus delay +
    // interference + withdraw + a RAPL power monitor, under a bursty
    // load, for 1200 simulated seconds. Invariants must survive the
    // stack.
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 16);
    chip.setInterference({0.02, 2});
    MessageBus bus(&sim);
    bus.setDeliveryDelay(SimTime::msec(1));

    const WorkloadModel mixed = WorkloadModel::siriusMixed();
    MultiStageApp app(&sim, &chip, &bus, "mixed",
                      mixed.layout(1, model.ladder().midLevel()));
    app.setWireReports(true);

    const SpeedupBook book =
        OfflineProfiler(40).profileWorkload(mixed, model, 3);
    PowerBudget budget(Watts(13.56), &model);
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(15);
    cfg.withdrawInterval = SimTime::sec(60);
    cfg.enableWithdraw = true;
    CommandCenter center(&sim, &bus, &chip, &app, &budget, &book, cfg,
                         std::make_unique<PowerChiefPolicy>());
    center.start();

    RaplReader rapl(&chip);
    double peakWatts = 0.0;
    sim.schedulePeriodic(SimTime::sec(2), SimTime::sec(2), [&]() {
        peakWatts = std::max(peakWatts, rapl.windowPower().value());
    });

    LoadGenerator gen(&sim, &app, &mixed,
                      LoadProfile::fig11(mixed, 1800), 17,
                      model.ladder().freqAt(0).value());
    gen.start(SimTime::sec(1200));
    sim.runUntil(SimTime::sec(1200));

    // Liveness: the system processed the workload.
    EXPECT_GT(app.completed(), 300u);
    EXPECT_EQ(center.queriesObserved(), app.completed());
    EXPECT_EQ(center.malformedReports(), 0u);
    // Safety: budget held, and so did the package power RAPL reads
    // over every 2 s window.
    EXPECT_LE(budget.allocated().value(), 13.56 + 1e-6);
    EXPECT_GT(peakWatts, 0.0);
    EXPECT_LE(peakWatts, 13.56);
    // Conservation including skipped stages and withdrawals.
    std::size_t queued = 0;
    for (const auto *inst : app.allInstances())
        queued += inst->queueLength();
    EXPECT_EQ(app.submitted(), app.completed() + queued);
    // The control plane actually did things.
    const auto &policy =
        dynamic_cast<const PowerChiefPolicy &>(center.policy());
    EXPECT_GT(policy.frequencyBoosts() + policy.instanceBoosts(), 0u);
}

TEST(Stress, FanOutUnderAdaptiveControlLongRun)
{
    // Web Search with true fan-out under PowerChief mitigation (not
    // just the conserve mode): launches/withdrawals re-shard the
    // corpus while queries are in flight.
    Scenario sc;
    sc.name = "ws-stress";
    sc.workload = WorkloadModel::webSearch();
    sc.initialCounts = {4, 1};
    sc.initialLevel = -1;
    sc.policy = PolicyKind::PowerChief;
    sc.powerBudget = Watts(25.0);
    sc.control.adjustInterval = SimTime::sec(5);
    sc.control.withdrawInterval = SimTime::sec(30);
    sc.control.balanceThresholdSec = 0.0;
    sc.control.enableWithdraw = true;
    sc.load = LoadProfile::diurnal(5.0, 45.0, SimTime::sec(300));
    sc.duration = SimTime::sec(900);
    sc.warmup = SimTime::sec(20);
    const RunResult r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 15000u);
    EXPECT_LT(r.avgLatencySec, 1.0);
    ASSERT_EQ(r.stageBreakdown.size(), 2u);
    // Every query produced >= 1 leaf hop + 1 agg hop.
    EXPECT_GE(r.stageBreakdown[0].hops, r.stageBreakdown[1].hops);
}

TEST(Stress, RepeatedRunsShareNoHiddenState)
{
    // Back-to-back runs in one process must not bleed state into each
    // other (global instance-id counter aside, results are identical).
    const ExperimentRunner runner;
    Scenario sc = Scenario::mitigation(WorkloadModel::nlp(),
                                       LoadLevel::Medium,
                                       PolicyKind::PowerChief, 9);
    sc.duration = SimTime::sec(200);
    const auto first = runner.run(sc);
    RunResult last;
    for (int i = 0; i < 5; ++i)
        last = runner.run(sc);
    EXPECT_EQ(first.completed, last.completed);
    EXPECT_DOUBLE_EQ(first.avgLatencySec, last.avgLatencySec);
    EXPECT_DOUBLE_EQ(first.avgPowerWatts, last.avgPowerWatts);
}

TEST(Stress, TinyChipGracefulUnderOversizedAmbitions)
{
    // Only 4 cores: PowerChief wants to clone but can't; it must fall
    // back to DVFS and keep the pipeline alive.
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, 21);
    sc.numCores = 4;
    sc.duration = SimTime::sec(300);
    const RunResult r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 100u);
}

TEST(Stress, SubSecondAdjustIntervalsStayStable)
{
    // Web-search-speed control loops (Table 3 uses 2 s; push to
    // 500 ms) must not oscillate the budget ledger into violation.
    Scenario sc = Scenario::conservation(WorkloadModel::webSearch(),
                                         {6, 1}, 0.25,
                                         SimTime::msec(500),
                                         PolicyKind::PowerChiefConserve,
                                         5);
    sc.load = LoadProfile::constant(20.0);
    sc.duration = SimTime::sec(120);
    const RunResult r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 2000u);
    EXPECT_LT(r.avgLatencySec, 0.25);
}

TEST(Stress, SweepEngineDigestsHundredsOfScenarios)
{
    // 216 tiny but real simulations through the parallel sweep engine:
    // every workload x policy x a spread of seeds, short horizons.
    // Checks the engine under sustained load and that a second pass at
    // a different thread count reproduces every result bit-for-bit.
    const std::vector<WorkloadModel> workloads = {
        WorkloadModel::sirius(), WorkloadModel::nlp(),
        WorkloadModel::webSearch()};
    const std::vector<PolicyKind> policies = {
        PolicyKind::StageAgnostic, PolicyKind::FreqBoost,
        PolicyKind::InstBoost, PolicyKind::PowerChief};

    std::vector<Scenario> scenarios;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (PolicyKind policy : policies) {
            for (int seed = 1; seed <= 18; ++seed) {
                Scenario sc = Scenario::mitigation(
                    workloads[w], LoadLevel::Medium, policy, seed);
                sc.duration = SimTime::sec(30);
                sc.name += "/w" + std::to_string(w) + "s" +
                    std::to_string(seed);
                scenarios.push_back(std::move(sc));
            }
        }
    }
    ASSERT_GE(scenarios.size(), 200u);

    SweepOptions opt;
    opt.jobs = 4;
    SweepRunner sweep(opt);
    const std::vector<RunResult> first = sweep.runAll(scenarios);
    ASSERT_EQ(first.size(), scenarios.size());
    EXPECT_EQ(sweep.report().total, scenarios.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].scenario, scenarios[i].name);
        EXPECT_GT(first[i].completed, 0u);
    }

    // Spot-check determinism: re-run a sample at a different width.
    SweepOptions opt2;
    opt2.jobs = 2;
    SweepRunner sweep2(opt2);
    for (std::size_t i = 0; i < scenarios.size(); i += 37) {
        const RunResult again = sweep2.runOne(scenarios[i]);
        EXPECT_EQ(runResultToJson(first[i]).dump(),
                  runResultToJson(again).dump())
            << "scenario " << scenarios[i].name;
    }
}

} // namespace
} // namespace pc
