/** @file Unit tests for the instance-withdraw monitor (§6.2). */

#include <gtest/gtest.h>

#include "core/withdraw.h"
#include "test_query_slab.h"

namespace pc {
namespace {

class WithdrawTest : public testing::Test
{
  protected:
    WithdrawTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 8), bus(&sim),
          budget(Watts(1000.0), &model)
    {
        std::vector<StageSpec> specs = {
            {"S", 2, 0, DispatchPolicy::JoinShortestQueue}};
        app = std::make_unique<MultiStageApp>(&sim, &chip, &bus, "app",
                                              specs);
        for (const auto *inst : app->allInstances())
            EXPECT_TRUE(budget.allocate(inst->id(), 0));
        monitor = std::make_unique<WithdrawMonitor>(&sim, app.get(),
                                                    &budget);
    }

    /** Busy an instance for @p busySec within the next interval. */
    void
    occupy(ServiceInstance *inst, double busySec)
    {
        // cpuRef at 1.2 GHz core: serviceSec == cpuSecAtRef.
        inst->enqueue(testQuery(
            nextId++, sim.now(),
            std::vector<WorkDemand>{{busySec, 0.0}}));
    }

    SortedSnapshots
    rankedOf()
    {
        SortedSnapshots out;
        double metric = 0.0;
        for (const auto *inst : app->stage(0).instances()) {
            InstanceSnapshot s;
            s.instanceId = inst->id();
            s.stageIndex = 0;
            s.coreId = inst->coreId();
            s.level = inst->level();
            s.metric = metric += 1.0;
            out.push_back(s);
        }
        return out;
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    PowerBudget budget;
    std::unique_ptr<MultiStageApp> app;
    std::unique_ptr<WithdrawMonitor> monitor;
    std::int64_t nextId = 1;
};

TEST_F(WithdrawTest, FirstCheckOnlyBaselines)
{
    sim.runUntil(SimTime::sec(10));
    EXPECT_TRUE(monitor->checkAndWithdraw(rankedOf()).empty());
    EXPECT_EQ(app->stage(0).numLiveInstances(), 2u);
}

TEST_F(WithdrawTest, UnderutilizedInstanceWithdrawn)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf()); // baseline
    // Keep instance 0 busy ~50%, instance 1 idle (~0%).
    auto live = app->stage(0).instances();
    occupy(live[0], 5.0);
    sim.runUntil(SimTime::sec(11));
    const auto withdrawn = monitor->checkAndWithdraw(rankedOf());
    ASSERT_EQ(withdrawn.size(), 1u);
    EXPECT_EQ(withdrawn[0], live[1]->id());
    sim.run();
    EXPECT_EQ(app->stage(0).numLiveInstances(), 1u);
    EXPECT_EQ(budget.numConsumers(), 1u);
}

TEST_F(WithdrawTest, BusyInstancesStay)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    occupy(live[0], 5.0); // 50% util over the 10 s interval
    occupy(live[1], 3.0); // 30% util
    sim.runUntil(SimTime::sec(11));
    EXPECT_TRUE(monitor->checkAndWithdraw(rankedOf()).empty());
    EXPECT_EQ(app->stage(0).numLiveInstances(), 2u);
}

TEST_F(WithdrawTest, UtilizationJustBelowThresholdTriggers)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    occupy(live[0], 5.0);
    occupy(live[1], 1.5); // 15% < 20%
    sim.runUntil(SimTime::sec(11));
    const auto withdrawn = monitor->checkAndWithdraw(rankedOf());
    ASSERT_EQ(withdrawn.size(), 1u);
    EXPECT_EQ(withdrawn[0], live[1]->id());
}

TEST_F(WithdrawTest, UtilizationAtThresholdStays)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    occupy(live[0], 5.0);
    occupy(live[1], 2.0); // exactly 20%: not < threshold
    sim.runUntil(SimTime::sec(11));
    EXPECT_TRUE(monitor->checkAndWithdraw(rankedOf()).empty());
}

TEST_F(WithdrawTest, LastInstanceNeverWithdrawn)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    // Withdraw one legitimately...
    occupy(live[0], 8.0);
    sim.runUntil(SimTime::sec(11));
    ASSERT_EQ(monitor->checkAndWithdraw(rankedOf()).size(), 1u);
    sim.run();
    // ...then the survivor idles completely but must stay.
    sim.runUntil(SimTime::sec(30));
    EXPECT_TRUE(monitor->checkAndWithdraw(rankedOf()).empty());
    EXPECT_EQ(app->stage(0).numLiveInstances(), 1u);
}

TEST_F(WithdrawTest, AtMostOnePerStagePerInterval)
{
    // Three idle instances; only one may go per check.
    auto *extra = app->stage(0).launchInstance(0);
    ASSERT_TRUE(budget.allocate(extra->id(), 0));
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    occupy(live[0], 9.0); // keep one busy
    sim.runUntil(SimTime::sec(11));
    EXPECT_EQ(monitor->checkAndWithdraw(rankedOf()).size(), 1u);
}

TEST_F(WithdrawTest, UtilizationValuesExposed)
{
    sim.runUntil(SimTime::sec(1));
    monitor->checkAndWithdraw(rankedOf());
    auto live = app->stage(0).instances();
    occupy(live[0], 5.0);
    sim.runUntil(SimTime::sec(11));
    monitor->checkAndWithdraw(rankedOf());
    const auto util = monitor->lastUtilizationFor(live[0]->id());
    ASSERT_TRUE(util.has_value());
    EXPECT_NEAR(*util, 0.5, 0.01);
    EXPECT_FALSE(monitor->lastUtilizationFor(9999999).has_value());
}

TEST_F(WithdrawTest, ThresholdAccessor)
{
    EXPECT_DOUBLE_EQ(monitor->utilizationThreshold(), 0.2);
}

TEST(WithdrawDeath, BadThresholdIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    MessageBus bus(&sim);
    std::vector<StageSpec> specs = {
        {"S", 1, 0, DispatchPolicy::JoinShortestQueue}};
    MultiStageApp app(&sim, &chip, &bus, "app", specs);
    PowerBudget budget(Watts(10.0), &model);
    EXPECT_EXIT(WithdrawMonitor(&sim, &app, &budget, 0.0),
                testing::ExitedWithCode(1), "threshold");
    EXPECT_EXIT(WithdrawMonitor(&sim, &app, &budget, 1.0),
                testing::ExitedWithCode(1), "threshold");
}

} // namespace
} // namespace pc
