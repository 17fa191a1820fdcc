/** @file Unit tests for Stage: instance pool, withdraw, dispatch. */

#include <gtest/gtest.h>

#include "app/stage.h"
#include "test_query_slab.h"

namespace pc {
namespace {

QueryPtr
makeQuery(std::int64_t id, double cpuRef = 1.2, double mem = 0.3)
{
    return testQuery(
        id, SimTime::zero(), std::vector<WorkDemand>{{cpuRef, mem}});
}

class StageTest : public testing::Test
{
  protected:
    StageTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 4),
          stage(0, "QA", &sim, &chip)
    {
        stage.setCompletionCallback(
            [this](QueryPtr q) { done.push_back(std::move(q)); });
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    Stage stage;
    std::vector<QueryPtr> done;
};

TEST_F(StageTest, LaunchNamesSequentially)
{
    auto *a = stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->name(), "QA_1");
    EXPECT_EQ(b->name(), "QA_2");
    EXPECT_NE(a->id(), b->id());
    EXPECT_EQ(stage.numLiveInstances(), 2u);
    EXPECT_EQ(chip.numAllocated(), 2);
}

TEST_F(StageTest, LaunchFailsWhenChipFull)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(stage.launchInstance(0), nullptr);
    EXPECT_EQ(stage.launchInstance(0), nullptr);
}

TEST_F(StageTest, LaunchAtRequestedLevel)
{
    auto *a = stage.launchInstance(9);
    EXPECT_EQ(a->level(), 9);
    EXPECT_EQ(a->frequency(), MHz(2100));
}

TEST_F(StageTest, SubmitDispatchesAndCompletes)
{
    stage.launchInstance(0);
    stage.submit(makeQuery(1));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->id(), 1);
}

TEST_F(StageTest, SubmitBalancesAcrossInstances)
{
    auto *a = stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    stage.submit(makeQuery(1));
    stage.submit(makeQuery(2));
    EXPECT_EQ(a->queueLength(), 1u);
    EXPECT_EQ(b->queueLength(), 1u);
    EXPECT_EQ(stage.totalQueueLength(), 2u);
}

TEST_F(StageTest, FindInstanceById)
{
    auto *a = stage.launchInstance(0);
    EXPECT_EQ(stage.findInstance(a->id()), a);
    EXPECT_EQ(stage.findInstance(99999), nullptr);
}

TEST_F(StageTest, WithdrawLastInstanceRefused)
{
    auto *a = stage.launchInstance(0);
    EXPECT_FALSE(stage.withdrawInstance(a->id()));
    EXPECT_EQ(stage.numLiveInstances(), 1u);
}

TEST_F(StageTest, WithdrawUnknownRefused)
{
    stage.launchInstance(0);
    stage.launchInstance(0);
    EXPECT_FALSE(stage.withdrawInstance(424242));
}

TEST_F(StageTest, WithdrawIdleInstanceReleasesCore)
{
    stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    EXPECT_TRUE(stage.withdrawInstance(b->id()));
    sim.run(); // zero-delay reap
    EXPECT_EQ(stage.numLiveInstances(), 1u);
    EXPECT_EQ(stage.allInstances().size(), 1u);
    EXPECT_EQ(chip.numAllocated(), 1);
}

TEST_F(StageTest, WithdrawRedirectsWaitingQueries)
{
    auto *a = stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    // Load b with three queries (1 in service + 2 waiting).
    b->enqueue(makeQuery(1));
    b->enqueue(makeQuery(2));
    b->enqueue(makeQuery(3));
    EXPECT_TRUE(stage.withdrawInstance(b->id(), a));
    // The two waiting queries moved to a; b finishes its in-flight one.
    EXPECT_EQ(a->queueLength(), 2u);
    EXPECT_TRUE(b->draining());
    sim.run();
    EXPECT_EQ(done.size(), 3u);
    EXPECT_EQ(stage.numLiveInstances(), 1u);
    EXPECT_EQ(chip.numAllocated(), 1);
}

TEST_F(StageTest, WithdrawBusyInstanceReapsAfterDrain)
{
    stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    b->enqueue(makeQuery(1)); // busy
    EXPECT_TRUE(stage.withdrawInstance(b->id()));
    EXPECT_EQ(stage.allInstances().size(), 2u); // not reaped yet
    sim.run();
    EXPECT_EQ(stage.allInstances().size(), 1u);
}

TEST_F(StageTest, WithdrawDefaultsToLeastLoadedTarget)
{
    auto *a = stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    auto *c = stage.launchInstance(0);
    for (int i = 0; i < 3; ++i)
        a->enqueue(makeQuery(100 + i));
    // b gets withdrawn; its queries should go to c (empty), not a.
    b->enqueue(makeQuery(10));
    b->enqueue(makeQuery(11));
    EXPECT_TRUE(stage.withdrawInstance(b->id(), nullptr));
    EXPECT_EQ(c->queueLength(), 1u);

    // In-service query of b is NOT redirected.
    EXPECT_TRUE(b->busy());
}

TEST_F(StageTest, DoubleWithdrawRefused)
{
    stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    b->enqueue(makeQuery(1));
    EXPECT_TRUE(stage.withdrawInstance(b->id()));
    EXPECT_FALSE(stage.withdrawInstance(b->id()));
}

TEST_F(StageTest, DispatcherSkipsDrainingInstance)
{
    auto *a = stage.launchInstance(0);
    auto *b = stage.launchInstance(0);
    b->enqueue(makeQuery(1));
    ASSERT_TRUE(stage.withdrawInstance(b->id()));
    stage.submit(makeQuery(2));
    EXPECT_EQ(a->queueLength(), 1u);
    EXPECT_EQ(b->queueLength(), 1u); // unchanged
}

TEST_F(StageTest, InstanceIdsGloballyUnique)
{
    Stage other(1, "OTHER", &sim, &chip);
    auto *a = stage.launchInstance(0);
    auto *b = other.launchInstance(0);
    EXPECT_NE(a->id(), b->id());
}

} // namespace
} // namespace pc
