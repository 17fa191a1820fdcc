/** @file Unit tests for scenarios and the experiment runner. */

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "exp/runner.h"
#include "power/budget.h"

namespace pc {
namespace {

TEST(Scenario, MitigationDefaultsMatchTableTwo)
{
    const auto sc = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::High,
                                         PolicyKind::PowerChief);
    EXPECT_NEAR(sc.powerBudget.value(), 13.56, 1e-9);
    EXPECT_EQ(sc.control.adjustInterval, SimTime::sec(25));
    EXPECT_EQ(sc.control.withdrawInterval, SimTime::sec(150));
    EXPECT_DOUBLE_EQ(sc.control.balanceThresholdSec, 1.0);
    EXPECT_TRUE(sc.control.enableWithdraw);
    EXPECT_EQ(sc.initialCounts, (std::vector<int>{1, 1, 1}));
    EXPECT_EQ(sc.duration, SimTime::sec(900));
}

TEST(Scenario, MitigationWithdrawOnlyForPowerChief)
{
    EXPECT_FALSE(Scenario::mitigation(WorkloadModel::sirius(),
                                      LoadLevel::Low,
                                      PolicyKind::FreqBoost)
                     .control.enableWithdraw);
    EXPECT_FALSE(Scenario::mitigation(WorkloadModel::sirius(),
                                      LoadLevel::Low,
                                      PolicyKind::InstBoost)
                     .control.enableWithdraw);
}

TEST(Scenario, ConservationDefaultsMatchTableThree)
{
    const auto sc = Scenario::conservation(
        WorkloadModel::webSearch(), {10, 1}, 0.25, SimTime::sec(2),
        PolicyKind::Pegasus);
    EXPECT_EQ(sc.initialCounts, (std::vector<int>{10, 1}));
    EXPECT_EQ(sc.control.adjustInterval, SimTime::sec(2));
    EXPECT_DOUBLE_EQ(sc.qosTargetSec, 0.25);
    EXPECT_TRUE(sc.qosUseTail); // Pegasus guards the raw tail signal
    EXPECT_FALSE(sc.control.enableWithdraw);
    EXPECT_GT(sc.powerBudget.value(), 100.0); // effectively uncapped
}

TEST(Scenario, ConservationPowerChiefEnablesWithdraw)
{
    const auto sc = Scenario::conservation(
        WorkloadModel::webSearch(), {10, 1}, 0.25, SimTime::sec(2),
        PolicyKind::PowerChiefConserve);
    EXPECT_TRUE(sc.control.enableWithdraw);
    EXPECT_FALSE(sc.qosUseTail);
}

TEST(Scenario, PolicyKindNames)
{
    EXPECT_STREQ(toString(PolicyKind::StageAgnostic), "baseline");
    EXPECT_STREQ(toString(PolicyKind::FreqBoost), "freq-boost");
    EXPECT_STREQ(toString(PolicyKind::InstBoost), "inst-boost");
    EXPECT_STREQ(toString(PolicyKind::PowerChief), "powerchief");
    EXPECT_STREQ(toString(PolicyKind::FastCap), "fastcap");
    EXPECT_STREQ(toString(PolicyKind::CuttleSys), "cuttlesys");
}

TEST(Scenario, PolicyKindNamesRoundTrip)
{
    for (const PolicyKind kind : allPolicyKinds()) {
        PolicyKind parsed = PolicyKind::Count;
        ASSERT_TRUE(parsePolicyKind(toString(kind), &parsed))
            << toString(kind);
        EXPECT_EQ(parsed, kind);
    }
    PolicyKind parsed = PolicyKind::Count;
    EXPECT_FALSE(parsePolicyKind("no-such-policy", &parsed));
    // Historical aliases still resolve.
    EXPECT_TRUE(parsePolicyKind("freq", &parsed));
    EXPECT_EQ(parsed, PolicyKind::FreqBoost);
    EXPECT_TRUE(parsePolicyKind("conserve", &parsed));
    EXPECT_EQ(parsed, PolicyKind::PowerChiefConserve);
}

TEST(RunResult, ImprovementRatio)
{
    EXPECT_DOUBLE_EQ(RunResult::improvement(10.0, 2.0), 5.0);
    EXPECT_DOUBLE_EQ(RunResult::improvement(10.0, 0.0), 0.0);
}

class RunnerTest : public testing::Test
{
  protected:
    Scenario
    shortScenario(PolicyKind policy, LoadLevel level = LoadLevel::Medium)
    {
        Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                           level, policy, /*seed=*/7);
        sc.duration = SimTime::sec(150);
        sc.warmup = SimTime::sec(10);
        return sc;
    }
};

TEST_F(RunnerTest, BaselineRunProducesCompletions)
{
    const ExperimentRunner runner;
    const auto r = runner.run(shortScenario(PolicyKind::StageAgnostic));
    EXPECT_GT(r.completed, 0u);
    EXPECT_LE(r.completed, r.submitted);
    EXPECT_GT(r.avgLatencySec, 0.0);
    EXPECT_GE(r.p99LatencySec, r.avgLatencySec);
    EXPECT_GE(r.maxLatencySec, r.p99LatencySec);
    EXPECT_GT(r.avgPowerWatts, 0.0);
    EXPECT_GT(r.energyJoules, 0.0);
}

TEST_F(RunnerTest, DeterministicForSameSeed)
{
    const ExperimentRunner runner;
    const auto a = runner.run(shortScenario(PolicyKind::PowerChief));
    const auto b = runner.run(shortScenario(PolicyKind::PowerChief));
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.avgLatencySec, b.avgLatencySec);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.avgPowerWatts, b.avgPowerWatts);
}

TEST_F(RunnerTest, SeedChangesTheRun)
{
    const ExperimentRunner runner;
    auto sc = shortScenario(PolicyKind::StageAgnostic);
    const auto a = runner.run(sc);
    sc.seed = 8;
    const auto b = runner.run(sc);
    EXPECT_NE(a.avgLatencySec, b.avgLatencySec);
}

TEST_F(RunnerTest, TracesOnlyWhenRequested)
{
    auto sc = shortScenario(PolicyKind::StageAgnostic);
    const auto bare = ExperimentRunner(false).run(sc);
    EXPECT_TRUE(bare.powerSeries.empty());
    EXPECT_TRUE(bare.latencySeries.empty());
    EXPECT_TRUE(bare.instanceFrequencyGHz.empty());

    const auto traced = ExperimentRunner(true).run(sc);
    EXPECT_FALSE(traced.powerSeries.empty());
    EXPECT_FALSE(traced.latencySeries.empty());
    EXPECT_EQ(traced.stageInstanceCounts.size(), 3u);
    EXPECT_GE(traced.instanceFrequencyGHz.size(), 3u);
}

TEST_F(RunnerTest, StageBreakdownFollowsLoad)
{
    const ExperimentRunner runner;
    const auto light =
        runner.run(shortScenario(PolicyKind::StageAgnostic,
                                 LoadLevel::Low));
    const auto heavy =
        runner.run(shortScenario(PolicyKind::StageAgnostic,
                                 LoadLevel::High));
    ASSERT_EQ(light.stageBreakdown.size(), 3u);
    ASSERT_EQ(heavy.stageBreakdown.size(), 3u);
    // QA (stage 2) dominates Sirius; at high load its queuing share
    // explodes while at low load serving dominates — the 2.3 mechanism.
    EXPECT_LT(light.stageBreakdown[2].queuingShare(), 0.5);
    EXPECT_GT(heavy.stageBreakdown[2].queuingShare(), 0.9);
    // Serving time itself barely moves with load.
    EXPECT_NEAR(light.stageBreakdown[2].avgServingSec,
                heavy.stageBreakdown[2].avgServingSec,
                0.4 * light.stageBreakdown[2].avgServingSec);
    // Hops counted for every completed post-warmup query.
    EXPECT_GT(heavy.stageBreakdown[0].hops, 0u);
}

TEST_F(RunnerTest, MetricOverrideIsApplied)
{
    // A run with a different metric must still work end to end.
    auto sc = shortScenario(PolicyKind::PowerChief);
    sc.metricFactory = [] {
        return std::make_unique<AvgProcessingMetric>();
    };
    const auto r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 0u);
}

TEST_F(RunnerTest, RecycleOverrideIsApplied)
{
    auto sc = shortScenario(PolicyKind::PowerChief);
    sc.recycleFactory = [] {
        return std::make_unique<SlowestFirstOrder>();
    };
    const auto r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 0u);
}

TEST_F(RunnerTest, ConservationScenarioRuns)
{
    Scenario sc = Scenario::conservation(
        WorkloadModel::webSearch(), {4, 1}, 0.25, SimTime::sec(2),
        PolicyKind::PowerChiefConserve, /*seed=*/5);
    sc.load = LoadProfile::constant(10.0);
    sc.duration = SimTime::sec(120);
    const auto r = ExperimentRunner().run(sc);
    EXPECT_GT(r.completed, 900u); // ~10 qps * 120 s
    EXPECT_LT(r.avgLatencySec, 0.25);
}

TEST(RunInvariantsDeath, LedgerDisagreementIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 4);
    MessageBus bus(&sim);
    MultiStageApp app(&sim, &chip, &bus, "app",
                      {{"A", 2, 0, DispatchPolicy::JoinShortestQueue}});
    PowerBudget budget(Watts(100.0), &model);
    for (const auto *inst : app.allInstances())
        ASSERT_TRUE(budget.allocate(inst->id(), inst->level()));
    checkRunInvariants(app, budget, -1); // consistent: returns

    budget.release(app.allInstances().front()->id());
    EXPECT_EXIT(checkRunInvariants(app, budget, 3),
                testing::ExitedWithCode(1), "budget ledger on node 3");
}

} // namespace
} // namespace pc
