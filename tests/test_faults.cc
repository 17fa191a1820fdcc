/**
 * @file
 * Fault-injection subsystem tests: plan parsing and matching, the bus /
 * MSR / RAPL fault primitives, and the end-to-end robustness
 * invariants (zero-rate byte identity, crash/recovery query
 * conservation, budget-ledger reconciliation under dropped PERF_CTL
 * writes).
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hal/chip.h"
#include "hal/msr.h"
#include "hal/rapl.h"
#include "rpc/bus.h"

namespace pc {
namespace {

// ---------------------------------------------------------- FaultPlan

TEST(FaultPlan, PatternMatching)
{
    EXPECT_TRUE(FaultPlan::matches("*", "anything/at/all"));
    EXPECT_TRUE(FaultPlan::matches("*", ""));
    EXPECT_TRUE(FaultPlan::matches("command-*", "command-center/app"));
    EXPECT_TRUE(FaultPlan::matches("command-*", "command-"));
    EXPECT_FALSE(FaultPlan::matches("command-*", "node0/set-frequency"));
    EXPECT_TRUE(FaultPlan::matches("echo", "echo"));
    EXPECT_FALSE(FaultPlan::matches("echo", "echo2"));
    EXPECT_FALSE(FaultPlan::matches("echo2", "echo"));
}

TEST(FaultPlan, FirstMatchingRuleWins)
{
    FaultPlan plan;
    BusFaultRule specific;
    specific.endpoint = "asr/*";
    specific.dropRate = 0.5;
    BusFaultRule general;
    general.endpoint = "*";
    general.dropRate = 0.1;
    plan.bus.push_back(specific);
    plan.bus.push_back(general);

    ASSERT_NE(plan.ruleFor("asr/0"), nullptr);
    EXPECT_DOUBLE_EQ(plan.ruleFor("asr/0")->dropRate, 0.5);
    ASSERT_NE(plan.ruleFor("qa/0"), nullptr);
    EXPECT_DOUBLE_EQ(plan.ruleFor("qa/0")->dropRate, 0.1);
    plan.bus.clear();
    EXPECT_EQ(plan.ruleFor("asr/0"), nullptr);
}

TEST(FaultPlan, AnyEffectReflectsConfiguredRates)
{
    FaultPlan plan;
    plan.active = true;
    EXPECT_FALSE(plan.anyEffect()); // armed but inert

    FaultPlan withBus = plan;
    BusFaultRule rule;
    rule.duplicateRate = 0.01;
    withBus.bus.push_back(rule);
    EXPECT_TRUE(withBus.anyEffect());

    FaultPlan withCrash = plan;
    CrashEvent crash;
    crash.at = SimTime::sec(10);
    withCrash.crashes.push_back(crash);
    EXPECT_TRUE(withCrash.anyEffect());

    FaultPlan withTelemetry = plan;
    withTelemetry.telemetry.raplFailRate = 0.2;
    EXPECT_TRUE(withTelemetry.anyEffect());
}

TEST(FaultPlan, ParsesFullJsonSchema)
{
    const char *text = R"({
        "seed": 7,
        "bus": [
            {"endpoint": "command-*", "drop": 0.05, "duplicate": 0.01,
             "reorder": 0.1, "reorder_jitter_ms": 8}
        ],
        "crashes": [
            {"stage": 1, "at_sec": 60, "recovery_sec": 10}
        ],
        "telemetry": {"truncate": 0.05, "stale": 0.02,
                      "rapl_fail": 0.1, "perf_ctl_fail": 0.15}
    })";
    const JsonParseResult doc = parseJson(text);
    ASSERT_TRUE(doc.ok()) << doc.error;
    std::string error;
    const auto plan = faultPlanFromJson(*doc.value, &error);
    ASSERT_TRUE(plan.has_value()) << error;

    EXPECT_TRUE(plan->active);
    EXPECT_EQ(plan->seed, 7u);
    ASSERT_EQ(plan->bus.size(), 1u);
    EXPECT_EQ(plan->bus[0].endpoint, "command-*");
    EXPECT_DOUBLE_EQ(plan->bus[0].dropRate, 0.05);
    EXPECT_DOUBLE_EQ(plan->bus[0].duplicateRate, 0.01);
    EXPECT_DOUBLE_EQ(plan->bus[0].reorderRate, 0.1);
    EXPECT_EQ(plan->bus[0].reorderJitterMax, SimTime::msec(8));
    ASSERT_EQ(plan->crashes.size(), 1u);
    EXPECT_EQ(plan->crashes[0].stage, 1);
    EXPECT_EQ(plan->crashes[0].at, SimTime::sec(60));
    EXPECT_EQ(plan->crashes[0].recovery, SimTime::sec(10));
    EXPECT_DOUBLE_EQ(plan->telemetry.truncateRate, 0.05);
    EXPECT_DOUBLE_EQ(plan->telemetry.staleRate, 0.02);
    EXPECT_DOUBLE_EQ(plan->telemetry.raplFailRate, 0.1);
    EXPECT_DOUBLE_EQ(plan->telemetry.perfCtlFailRate, 0.15);
}

TEST(FaultPlan, RejectsSchemaViolations)
{
    auto parse = [](const char *text) {
        const JsonParseResult doc = parseJson(text);
        EXPECT_TRUE(doc.ok()) << doc.error;
        std::string error;
        const auto plan = faultPlanFromJson(*doc.value, &error);
        EXPECT_FALSE(plan.has_value());
        return error;
    };
    // Rates must sit in [0, 1].
    EXPECT_NE(parse(R"({"bus": [{"drop": 1.5}]})"), "");
    EXPECT_NE(parse(R"({"telemetry": {"stale": -0.1}})"), "");
    // Crashes need a time and a positive recovery.
    EXPECT_NE(parse(R"({"crashes": [{"stage": 0}]})"), "");
    EXPECT_NE(
        parse(R"({"crashes": [{"at_sec": 5, "recovery_sec": 0}]})"),
        "");
    EXPECT_NE(parse(R"({"crashes": [{"stage": -1, "at_sec": 5}]})"),
              "");
}

TEST(FaultPlan, FileLoaderPrefixesPathInErrors)
{
    std::string error;
    EXPECT_FALSE(
        faultPlanFromFile("/nonexistent/plan.json", &error).has_value());
    EXPECT_NE(error.find("/nonexistent/plan.json"), std::string::npos);

    const std::string path =
        testing::TempDir() + "/pc_fault_plan_test.json";
    {
        std::ofstream out(path);
        out << R"({"telemetry": {"rapl_fail": 0.5}})";
    }
    const auto plan = faultPlanFromFile(path, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    EXPECT_DOUBLE_EQ(plan->telemetry.raplFailRate, 0.5);
}

// ------------------------------------------------- bus fault actions

class BusFaultTest : public testing::Test
{
  protected:
    BusFaultTest() : bus(&sim)
    {
        endpoint = bus.registerEndpoint(
            "sink", [this](const MessagePtr &msg) {
                received.push_back(msg);
                times.push_back(sim.now());
            });
    }

    struct Ping : Message
    {
        explicit Ping(int v) : value(v) {}
        const char *type() const override { return "ping"; }
        int value;
    };

    void
    send(int value)
    {
        bus.send(endpoint, std::make_shared<Ping>(value));
    }

    Simulator sim;
    MessageBus bus;
    EndpointId endpoint = 0;
    std::vector<MessagePtr> received;
    std::vector<SimTime> times;
};

TEST_F(BusFaultTest, DropActionSuppressesDelivery)
{
    bus.setFaultFilter([](const std::string &,
                          const MessagePtr &) -> std::optional<BusFaultAction> {
        BusFaultAction action;
        action.drop = true;
        return action;
    });
    send(1);
    sim.run();
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(bus.messagesFaultDropped(), 1u);
    // Injected losses are kept apart from organic dead-endpoint drops.
    EXPECT_EQ(bus.messagesDropped(), 0u);
    EXPECT_EQ(bus.messagesDelivered(), 0u);
}

TEST_F(BusFaultTest, DuplicateActionDeliversExtraCopies)
{
    bus.setFaultFilter([](const std::string &,
                          const MessagePtr &) -> std::optional<BusFaultAction> {
        BusFaultAction action;
        action.duplicates = 2;
        return action;
    });
    send(7);
    sim.run();
    ASSERT_EQ(received.size(), 3u);
    for (const auto &msg : received)
        EXPECT_EQ(static_cast<const Ping *>(msg.get())->value, 7);
}

TEST_F(BusFaultTest, ExtraDelayReordersAgainstLaterTraffic)
{
    bool first = true;
    bus.setFaultFilter([&](const std::string &,
                           const MessagePtr &) -> std::optional<BusFaultAction> {
        if (!first)
            return std::nullopt;
        first = false;
        BusFaultAction action;
        action.extraDelay = SimTime::msec(5);
        return action;
    });
    send(1); // jittered by 5 ms
    send(2); // delivered immediately
    sim.run();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(static_cast<const Ping *>(received[0].get())->value, 2);
    EXPECT_EQ(static_cast<const Ping *>(received[1].get())->value, 1);
    EXPECT_EQ(times[1], SimTime::msec(5));
}

TEST_F(BusFaultTest, ReplaceSubstitutesPayload)
{
    bus.setFaultFilter([](const std::string &,
                          const MessagePtr &) -> std::optional<BusFaultAction> {
        BusFaultAction action;
        action.replace = std::make_shared<Ping>(99);
        return action;
    });
    send(1);
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(static_cast<const Ping *>(received[0].get())->value, 99);
}

TEST_F(BusFaultTest, NulloptLeavesTrafficUntouched)
{
    std::uint64_t consulted = 0;
    bus.setFaultFilter([&](const std::string &toName,
                           const MessagePtr &) -> std::optional<BusFaultAction> {
        ++consulted;
        EXPECT_EQ(toName, "sink");
        return std::nullopt;
    });
    send(1);
    send(2);
    sim.run();
    EXPECT_EQ(consulted, 2u);
    EXPECT_EQ(received.size(), 2u);
    EXPECT_EQ(bus.messagesFaultDropped(), 0u);
}

// ----------------------------------------------- MSR and RAPL faults

TEST(MsrFault, DroppedWriteKeepsOldValueAndSkipsHook)
{
    MsrSpace msr;
    int hookFires = 0;
    msr.setWriteHook(msr::IA32_PERF_CTL,
                     [&](int, std::uint32_t, std::uint64_t) {
                         ++hookFires;
                     });
    msr.write(0, msr::IA32_PERF_CTL, msr::perfCtlFromMHz(1800));
    EXPECT_EQ(hookFires, 1);

    bool dropWrites = true;
    msr.setWriteFaultFilter([&](int, std::uint32_t index) {
        return dropWrites && index == msr::IA32_PERF_CTL;
    });
    msr.write(0, msr::IA32_PERF_CTL, msr::perfCtlFromMHz(2400));
    // Exactly like a wrmsr the hardware never applied: read-back shows
    // the old operating point and the chip model never saw the write.
    EXPECT_EQ(msr.read(0, msr::IA32_PERF_CTL),
              msr::perfCtlFromMHz(1800));
    EXPECT_EQ(hookFires, 1);

    dropWrites = false;
    msr.write(0, msr::IA32_PERF_CTL, msr::perfCtlFromMHz(2400));
    EXPECT_EQ(msr.read(0, msr::IA32_PERF_CTL),
              msr::perfCtlFromMHz(2400));
    EXPECT_EQ(hookFires, 2);
}

TEST(RaplFault, FailedReadHoldsSampleWithoutLosingEnergy)
{
    Simulator sim;
    PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 4);
    RaplReader rapl(&chip);
    const int coreId = *chip.acquireCore(0);
    chip.core(coreId).setBusy(true);

    sim.runUntil(SimTime::sec(10));
    const double first = rapl.windowPower().value();
    EXPECT_GT(first, 0.0);

    bool fail = true;
    rapl.setFaultHook([&] { return fail; });
    sim.runUntil(SimTime::sec(20));
    // Failed read: the previous sample is held.
    EXPECT_DOUBLE_EQ(rapl.windowPower().value(), first);

    fail = false;
    sim.runUntil(SimTime::sec(30));
    // The window stayed open across the failure, so the next good read
    // integrates the full 20 s — constant load means the same average,
    // up to RAPL energy-counter quantization.
    EXPECT_NEAR(rapl.windowPower().value(), first, 1e-4);
}

// -------------------------------------------- end-to-end invariants

TEST(FaultIntegration, ZeroRatePlanIsByteIdenticalToNoFaultLayer)
{
    // The central determinism contract: an armed injector whose rates
    // are all zero must not perturb the simulation in any way — the
    // golden Fig. 11 run serializes to the exact same bytes.
    const ExperimentRunner runner(/*recordTraces=*/true);
    const std::string plain =
        runResultToJson(runner.run(Scenario::goldenFig11())).dump();

    Scenario faulty = Scenario::goldenFig11();
    faulty.faults.active = true;
    faulty.faults.seed = 99; // seed alone must not matter
    BusFaultRule inert;      // explicit all-zero rule, still no draws
    inert.endpoint = "*";
    faulty.faults.bus.push_back(inert);
    const std::string withLayer =
        runResultToJson(runner.run(faulty)).dump();

    EXPECT_EQ(plain, withLayer);
}

TEST(FaultIntegration, CrashAndRecoveryConserveQueries)
{
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, 7);
    sc.name = "faults/crash-recovery";
    sc.duration = SimTime::sec(120);
    sc.warmup = SimTime::sec(20);
    sc.faults.active = true;
    sc.faults.seed = 11;
    CrashEvent crash;
    crash.stage = 1;
    crash.at = SimTime::sec(50);
    crash.recovery = SimTime::sec(10);
    sc.faults.crashes.push_back(crash);

    // The runner itself fatally checks query conservation
    // (submitted == completed + resident) and budget-ledger agreement
    // after every fault run; completing with progress is the assertion.
    const ExperimentRunner runner;
    const RunResult result = runner.run(sc);
    EXPECT_GT(result.completed, 0u);
    EXPECT_GE(result.submitted, result.completed);
}

TEST(FaultIntegration, DroppedPerfCtlWritesReconcileTheLedger)
{
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, 7);
    sc.name = "faults/perfctl";
    sc.duration = SimTime::sec(100);
    sc.warmup = SimTime::sec(20);
    sc.faults.active = true;
    sc.faults.seed = 5;
    // Every DVFS actuation fails: boosts never take effect and the
    // policies must walk their reservations back instead of leaking
    // phantom watts. The runner's post-run ledger check
    // (budget level == actual level for every live instance) fatals
    // if reconciliation missed a case.
    sc.faults.telemetry.perfCtlFailRate = 1.0;

    const ExperimentRunner runner;
    const RunResult result = runner.run(sc);
    EXPECT_GT(result.completed, 0u);
}

TEST(FaultIntegration, FaultRunsAreSeedDeterministic)
{
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, 7);
    sc.name = "faults/deterministic";
    sc.duration = SimTime::sec(80);
    sc.warmup = SimTime::sec(10);
    sc.faults.active = true;
    sc.faults.seed = 21;
    BusFaultRule rule;
    rule.dropRate = 0.05;
    rule.reorderRate = 0.1;
    sc.faults.bus.push_back(rule);
    sc.faults.telemetry.perfCtlFailRate = 0.2;

    const ExperimentRunner runner(/*recordTraces=*/true);
    const std::string a = runResultToJson(runner.run(sc)).dump();
    const std::string b = runResultToJson(runner.run(sc)).dump();
    EXPECT_EQ(a, b);

    Scenario other = sc;
    other.faults.seed = 22;
    const std::string c = runResultToJson(runner.run(other)).dump();
    EXPECT_NE(a, c); // a different fault stream is a different run
}

} // namespace
} // namespace pc
