/** @file Unit tests for the CommandCenter wiring and control loop. */

#include <algorithm>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/command_center.h"
#include "core/decision.h"
#include "hal/rapl.h"
#include "obs/telemetry.h"
#include "workloads/loadgen.h"
#include "workloads/profiler.h"

namespace pc {
namespace {

class CenterTest : public testing::Test
{
  protected:
    CenterTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 16),
          bus(&sim), workload(WorkloadModel::sirius())
    {
        app = std::make_unique<MultiStageApp>(
            &sim, &chip, &bus, "sirius",
            workload.layout(1, model.ladder().midLevel()));
        book = OfflineProfiler(50).profileWorkload(workload, model, 1);
        budget = std::make_unique<PowerBudget>(Watts(13.56), &model);
    }

    std::unique_ptr<CommandCenter>
    makeCenter(std::unique_ptr<ControlPolicy> policy, ControlConfig cfg)
    {
        return std::make_unique<CommandCenter>(
            &sim, &bus, &chip, app.get(), budget.get(), &book, cfg,
            std::move(policy));
    }

    void
    drive(double qps, SimTime until, std::uint64_t seed = 3)
    {
        gen = std::make_unique<LoadGenerator>(
            &sim, app.get(), &workload, LoadProfile::constant(qps),
            seed, model.ladder().freqAt(0).value());
        gen->start(until);
        sim.runUntil(until);
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    WorkloadModel workload;
    std::unique_ptr<MultiStageApp> app;
    SpeedupBook book;
    std::unique_ptr<PowerBudget> budget;
    std::unique_ptr<LoadGenerator> gen;
};

TEST_F(CenterTest, ReservesBudgetForInitialLayout)
{
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             ControlConfig{});
    EXPECT_EQ(budget->numConsumers(), 3u);
    EXPECT_NEAR(budget->allocated().value(), 13.56, 0.01);
}

TEST_F(CenterTest, RegistersNamedEndpoint)
{
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             ControlConfig{});
    ASSERT_TRUE(bus.lookup("command-center/sirius").has_value());
    EXPECT_EQ(*bus.lookup("command-center/sirius"),
              center->endpoint());
}

TEST_F(CenterTest, EndpointFreedOnDestruction)
{
    makeCenter(std::make_unique<StageAgnosticPolicy>(),
               ControlConfig{});
    EXPECT_FALSE(bus.lookup("command-center/sirius").has_value());
}

TEST_F(CenterTest, ObservesCompletedQueries)
{
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             ControlConfig{});
    center->start();
    drive(0.2, SimTime::sec(60));
    EXPECT_GT(center->queriesObserved(), 0u);
    EXPECT_EQ(center->queriesObserved(), app->completed());
    EXPECT_FALSE(center->latencyWindow().empty());
}

TEST_F(CenterTest, TicksEveryAdjustInterval)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    center->start();
    sim.runUntil(SimTime::sec(55));
    EXPECT_EQ(center->intervalsRun(), 5u);
}

TEST_F(CenterTest, StopHaltsTheLoop)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    center->start();
    sim.runUntil(SimTime::sec(25));
    center->stop();
    sim.runUntil(SimTime::sec(100));
    EXPECT_EQ(center->intervalsRun(), 2u);
}

TEST_F(CenterTest, StartIsIdempotent)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    center->start();
    center->start();
    sim.runUntil(SimTime::sec(25));
    EXPECT_EQ(center->intervalsRun(), 2u);
}

TEST_F(CenterTest, IntervalCallbackSeesRanking)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    std::size_t rankedSize = 0;
    center->setIntervalCallback(
        [&](const ControlContext &ctx) { rankedSize = ctx.ranked.size(); });
    center->start();
    drive(0.2, SimTime::sec(30));
    EXPECT_EQ(rankedSize, 3u);
}

TEST_F(CenterTest, PowerChiefBoostsUnderLoad)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<PowerChiefPolicy>(), cfg);
    center->start();
    // Saturating load: the QA stage must get boosted somehow.
    drive(1.0, SimTime::sec(200));
    const auto &policy =
        dynamic_cast<const PowerChiefPolicy &>(center->policy());
    EXPECT_GT(policy.frequencyBoosts() + policy.instanceBoosts(), 0u);
}

TEST_F(CenterTest, WithdrawGatedByConfig)
{
    // enableWithdraw=false: extra idle instance stays forever.
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    cfg.withdrawInterval = SimTime::sec(30);
    cfg.enableWithdraw = false;
    budget = std::make_unique<PowerBudget>(Watts(100.0), &model);
    auto *extra = app->stage(0).launchInstance(0);
    (void)extra;
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    center->start();
    drive(0.05, SimTime::sec(200));
    EXPECT_EQ(app->stage(0).numLiveInstances(), 2u);
}

TEST_F(CenterTest, WithdrawRemovesIdleInstanceWhenEnabled)
{
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    cfg.withdrawInterval = SimTime::sec(30);
    cfg.enableWithdraw = true;
    budget = std::make_unique<PowerBudget>(Watts(100.0), &model);
    auto *extra = app->stage(0).launchInstance(0);
    (void)extra;
    auto center = makeCenter(std::make_unique<StageAgnosticPolicy>(),
                             cfg);
    center->start();
    // Load low enough that one ASR instance is < 20% utilized.
    drive(0.05, SimTime::sec(200));
    EXPECT_EQ(app->stage(0).numLiveInstances(), 1u);
}

TEST_F(CenterTest, RaplWindowPowerStaysUnderBudgetCap)
{
    // The budget keeps the package under its cap by construction (the
    // §3 claim): with every reservation at active power, the power a
    // RAPL monitor reads over each 1 s window never exceeds the cap.
    book = OfflineProfiler(30).profileWorkload(workload, model, 1);
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    auto center = makeCenter(std::make_unique<PowerChiefPolicy>(), cfg);
    center->start();

    RaplReader rapl(&chip);
    double peakWatts = 0.0;
    int windows = 0;
    sim.schedulePeriodic(SimTime::sec(1), SimTime::sec(1), [&]() {
        peakWatts = std::max(peakWatts, rapl.windowPower().value());
        ++windows;
    });
    drive(0.8, SimTime::sec(200));

    EXPECT_EQ(windows, 200);
    EXPECT_GT(peakWatts, 0.0);
    EXPECT_LE(peakWatts, budget->cap().value());
    EXPECT_GT(app->completed(), 50u);
}

// ------------------------------------------------------- decision log

/** Decision instants per kind in @p telemetry's Chrome trace. */
std::map<std::string, double>
traceInstants(const Telemetry &telemetry)
{
    std::ostringstream out;
    telemetry.trace().writeChromeTrace(out);
    const JsonParseResult parsed = parseJson(out.str());
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    std::map<std::string, double> byKind;
    if (!parsed.ok())
        return byKind;
    for (const JsonValue &ev :
         parsed.value->find("traceEvents")->asArray())
        if (ev.stringOr("cat", "") == "decision")
            byKind[ev.stringOr("name", "")] += 1.0;
    return byKind;
}

using DecisionLog = CenterTest;

TEST_F(DecisionLog, ForwardsRecordsIntoTelemetry)
{
    TelemetryConfig cfg;
    cfg.traceOut = "unused.json"; // enables tracing; never written
    Telemetry telemetry(cfg);

    emitDecision(&telemetry, SimTime::sec(5),
                 DecisionKind::FrequencyBoost, "QA_1", 9);
    emitDecision(&telemetry, SimTime::sec(6), DecisionKind::PowerRecycle,
                 "ASR_1", 1.5);
    emitDecision(&telemetry, SimTime::sec(7), DecisionKind::PowerRecycle,
                 "ASR_1", 0.5);
    emitDecision(&telemetry, SimTime::sec(8),
                 DecisionKind::InstanceWithdraw, "B_2");

    MetricsRegistry &metrics = telemetry.metrics();
    EXPECT_DOUBLE_EQ(
        metrics.counter("decision.freq-boost_total").value(), 1.0);
    EXPECT_DOUBLE_EQ(
        metrics.counter("decision.power-recycle_total").value(), 2.0);
    EXPECT_DOUBLE_EQ(
        metrics.counter("power.recycled_watts_total").value(), 2.0);
    EXPECT_DOUBLE_EQ(
        metrics.counter("decision.instance-withdraw_total").value(),
        1.0);
    // Counters appear on first emission: no zero-valued series for a
    // kind that never fired.
    const JsonValue dump = metrics.toJson();
    EXPECT_EQ(dump.find("counters")->find("decision.instance-launch_total"),
              nullptr);

    // One instant event per decision on the control track, naming its
    // subject.
    EXPECT_EQ(telemetry.trace().numEvents(), 4u);
    std::ostringstream out;
    telemetry.trace().writeChromeTrace(out);
    EXPECT_NE(out.str().find("\"subject\":\"B_2\""), std::string::npos);

    // Without telemetry an emission is a no-op.
    emitDecision(nullptr, SimTime::sec(9), DecisionKind::FrequencyBoost,
                 "QA_1", 10);
    EXPECT_EQ(telemetry.trace().numEvents(), 4u);
}

TEST_F(DecisionLog, CommandCenterRecordsBoosts)
{
    // A saturated Sirius run must leave a non-empty decision log whose
    // counts match the policy's own counters, in the metrics and in
    // the trace alike.
    book = OfflineProfiler(40).profileWorkload(workload, model, 1);
    ControlConfig cfg;
    cfg.adjustInterval = SimTime::sec(10);
    cfg.enableWithdraw = true;
    cfg.withdrawInterval = SimTime::sec(40);
    auto center = makeCenter(std::make_unique<PowerChiefPolicy>(), cfg);
    TelemetryConfig tcfg;
    tcfg.traceOut = "unused.json"; // enables tracing; never written
    Telemetry telemetry(tcfg);
    center->setTelemetry(&telemetry);
    center->start();
    drive(0.9, SimTime::sec(300));

    const auto counted = [&](DecisionKind kind) {
        return telemetry.metrics()
            .counter(std::string("decision.") + toString(kind) +
                     "_total")
            .value();
    };
    const auto &policy =
        dynamic_cast<const PowerChiefPolicy &>(center->policy());
    EXPECT_EQ(counted(DecisionKind::FrequencyBoost),
              static_cast<double>(policy.frequencyBoosts()));
    EXPECT_EQ(counted(DecisionKind::InstanceLaunch),
              static_cast<double>(policy.instanceBoosts()));
    EXPECT_GT(counted(DecisionKind::FrequencyBoost) +
                  counted(DecisionKind::InstanceLaunch),
              0.0);
    // Funding those boosts required recycling.
    EXPECT_GT(counted(DecisionKind::PowerRecycle), 0.0);

    // Every emission also lands in the trace, once.
    std::map<std::string, double> instants = traceInstants(telemetry);
    for (const DecisionKind kind :
         {DecisionKind::FrequencyBoost, DecisionKind::FrequencyStepDown,
          DecisionKind::InstanceLaunch, DecisionKind::InstanceWithdraw,
          DecisionKind::PowerRecycle, DecisionKind::IntervalSkipped})
        EXPECT_EQ(instants[toString(kind)], counted(kind))
            << toString(kind);
}

TEST(CenterDeath, OverBudgetLayoutIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 16);
    MessageBus bus(&sim);
    const WorkloadModel workload = WorkloadModel::sirius();
    MultiStageApp app(&sim, &chip, &bus, "sirius",
                      workload.layout(2, model.ladder().midLevel()));
    SpeedupBook book =
        OfflineProfiler(20).profileWorkload(workload, model, 1);
    PowerBudget budget(Watts(13.56), &model);
    EXPECT_EXIT(CommandCenter(&sim, &bus, &chip, &app, &budget, &book,
                              ControlConfig{},
                              std::make_unique<StageAgnosticPolicy>()),
                testing::ExitedWithCode(1), "exceeds the power budget");
}

TEST(CenterDeath, NullPolicyIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 16);
    MessageBus bus(&sim);
    const WorkloadModel workload = WorkloadModel::sirius();
    MultiStageApp app(&sim, &chip, &bus, "sirius",
                      workload.layout(1, 0));
    SpeedupBook book =
        OfflineProfiler(20).profileWorkload(workload, model, 1);
    PowerBudget budget(Watts(13.56), &model);
    EXPECT_EXIT(CommandCenter(&sim, &bus, &chip, &app, &budget, &book,
                              ControlConfig{}, nullptr),
                testing::ExitedWithCode(1), "policy");
}

} // namespace
} // namespace pc
