/** @file Unit tests for ServiceInstance: queueing, timing, DVFS rescale. */

#include <vector>

#include <gtest/gtest.h>

#include "app/service_instance.h"
#include "hal/cpufreq.h"
#include "test_query_slab.h"

namespace pc {
namespace {

QueryPtr
makeQuery(std::int64_t id, double cpuRef, double mem)
{
    return testQuery(
        id, SimTime::zero(), std::vector<WorkDemand>{{cpuRef, mem}});
}

class InstanceTest : public testing::Test
{
  protected:
    InstanceTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 2)
    {
        coreId = *chip.acquireCore(0); // 1.2 GHz = the reference freq
        inst = std::make_unique<ServiceInstance>(
            1, "SVC_1", 0, &sim, &chip, coreId,
            [this](QueryPtr q) { done.push_back(std::move(q)); });
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    int coreId = -1;
    std::unique_ptr<ServiceInstance> inst;
    std::vector<QueryPtr> done;
};

TEST_F(InstanceTest, StartsIdleAndEmpty)
{
    EXPECT_TRUE(inst->idleAndEmpty());
    EXPECT_EQ(inst->queueLength(), 0u);
    EXPECT_FALSE(inst->busy());
    EXPECT_EQ(inst->frequency(), MHz(1200));
}

TEST_F(InstanceTest, ServesSingleQueryWithExactTiming)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3)); // 1.5 s at 1.2 GHz
    EXPECT_TRUE(inst->busy());
    EXPECT_EQ(inst->queueLength(), 1u);
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    const auto &hop = done[0]->hop(done[0]->numHops() - 1);
    EXPECT_EQ(hop.instanceId, 1);
    EXPECT_EQ(hop.queuing(), SimTime::zero());
    EXPECT_NEAR(hop.serving().toSec(), 1.5, 1e-6);
    EXPECT_TRUE(inst->idleAndEmpty());
}

TEST_F(InstanceTest, FifoOrderAndQueuingTime)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3)); // 1.5 s each
    inst->enqueue(makeQuery(2, 1.2, 0.3));
    inst->enqueue(makeQuery(3, 1.2, 0.3));
    EXPECT_EQ(inst->queueLength(), 3u);
    EXPECT_EQ(inst->waitingCount(), 2u);
    sim.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0]->id(), 1);
    EXPECT_EQ(done[1]->id(), 2);
    EXPECT_EQ(done[2]->id(), 3);
    EXPECT_NEAR(done[1]->hop(done[1]->numHops() - 1).queuing().toSec(), 1.5, 1e-6);
    EXPECT_NEAR(done[2]->hop(done[2]->numHops() - 1).queuing().toSec(), 3.0, 1e-6);
    EXPECT_EQ(sim.now(), SimTime::sec(4.5));
}

TEST_F(InstanceTest, FasterCoreServesFaster)
{
    chip.core(coreId).setLevel(12); // 2.4 GHz
    inst->enqueue(makeQuery(1, 1.2, 0.3));
    sim.run();
    // 0.3 + 1.2 * 1200/2400 = 0.9 s.
    EXPECT_NEAR(done[0]->hop(done[0]->numHops() - 1).serving().toSec(), 0.9, 2e-6);
}

TEST_F(InstanceTest, MidServiceFrequencyBoostRescales)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3)); // 1.5 s at 1.2 GHz
    // At half progress, jump to 2.4 GHz: the remaining half of the work
    // takes 0.45 s, so the query finishes at t = 1.20 s.
    sim.scheduleAt(SimTime::sec(0.75),
                   [&]() { chip.core(coreId).setLevel(12); });
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_NEAR(done[0]->hop(done[0]->numHops() - 1).serving().toSec(), 1.20, 2e-6);
}

TEST_F(InstanceTest, MidServiceFrequencyDropRescales)
{
    chip.core(coreId).setLevel(12); // start at 2.4 GHz: total 0.9 s
    inst->enqueue(makeQuery(1, 1.2, 0.3));
    // At t=0.45 (progress 0.5), drop to 1.2 GHz: remaining takes 0.75 s.
    sim.scheduleAt(SimTime::sec(0.45),
                   [&]() { chip.core(coreId).setLevel(0); });
    sim.run();
    EXPECT_NEAR(done[0]->hop(done[0]->numHops() - 1).serving().toSec(), 1.20, 2e-6);
}

TEST_F(InstanceTest, MultipleFrequencyChangesCompose)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3)); // 1.5 s at 1.2 GHz
    // 0.5 s at 1.2 GHz -> progress 1/3; rest at 2.4 GHz (0.9 s total)
    // takes 0.6 s; but halfway through that, back to 1.2 GHz.
    sim.scheduleAt(SimTime::sec(0.5),
                   [&]() { chip.core(coreId).setLevel(12); });
    sim.scheduleAt(SimTime::sec(0.8),
                   [&]() { chip.core(coreId).setLevel(0); });
    sim.run();
    // progress after 0.5s @1.2: 1/3. after 0.3s @2.4: +0.3/0.9 = 1/3.
    // remaining 1/3 at 1.2 GHz: 0.5 s -> finish at 1.3 s.
    EXPECT_NEAR(done[0]->hop(done[0]->numHops() - 1).serving().toSec(), 1.30, 2e-6);
}

TEST_F(InstanceTest, FreqChangeWhileIdleIsHarmless)
{
    chip.core(coreId).setLevel(5);
    chip.core(coreId).setLevel(2);
    inst->enqueue(makeQuery(1, 0.0, 0.5));
    sim.run();
    EXPECT_EQ(done.size(), 1u);
}

TEST_F(InstanceTest, StealHalfTakesTailPreservingOrder)
{
    for (int i = 1; i <= 5; ++i)
        inst->enqueue(makeQuery(i, 1.2, 0.3));
    // Queue: 1 in service, 2..5 waiting. Steal -> takes 4, 5.
    auto stolen = inst->stealHalfQueue();
    ASSERT_EQ(stolen.size(), 2u);
    EXPECT_EQ(stolen[0].query->id(), 4);
    EXPECT_EQ(stolen[1].query->id(), 5);
    EXPECT_EQ(inst->waitingCount(), 2u);
}

TEST_F(InstanceTest, StealFromShortQueueTakesNothing)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3));
    inst->enqueue(makeQuery(2, 1.2, 0.3));
    // 1 waiting -> half of 1 == 0.
    EXPECT_TRUE(inst->stealHalfQueue().empty());
}

TEST_F(InstanceTest, AdoptPreservesEnqueueTimestamp)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3));
    inst->enqueue(makeQuery(2, 1.2, 0.3));
    inst->enqueue(makeQuery(3, 1.2, 0.3));
    auto stolen = inst->stealHalfQueue(); // query 3, enqueued at t=0
    ASSERT_EQ(stolen.size(), 1u);

    // A second instance serves the stolen query later; its queuing time
    // must span from the original enqueue.
    const int core2 = *chip.acquireCore(12);
    std::vector<QueryPtr> done2;
    ServiceInstance other(2, "SVC_2", 0, &sim, &chip, core2,
                          [&](QueryPtr q) { done2.push_back(q); });
    sim.runUntil(SimTime::sec(2));
    other.adopt(std::move(stolen[0]));
    sim.run();
    ASSERT_EQ(done2.size(), 1u);
    EXPECT_NEAR(done2[0]->hop(done2[0]->numHops() - 1).queuing().toSec(), 2.0, 1e-6);
}

TEST_F(InstanceTest, DrainWaitingEmptiesQueueKeepsInFlight)
{
    for (int i = 1; i <= 4; ++i)
        inst->enqueue(makeQuery(i, 1.2, 0.3));
    auto drained = inst->drainWaiting();
    EXPECT_EQ(drained.size(), 3u);
    EXPECT_TRUE(inst->busy());
    EXPECT_EQ(inst->queueLength(), 1u);
    sim.run();
    EXPECT_EQ(done.size(), 1u); // only the in-flight one finishes here
}

TEST_F(InstanceTest, DrainingFlagIsSticky)
{
    EXPECT_FALSE(inst->draining());
    inst->setDraining(true);
    EXPECT_TRUE(inst->draining());
}

TEST_F(InstanceTest, BusyTimeAccountsPartialService)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3)); // 1.5 s
    sim.runUntil(SimTime::sec(1));
    EXPECT_NEAR(inst->totalBusyTime().toSec(), 1.0, 1e-6);
    sim.run();
    EXPECT_NEAR(inst->totalBusyTime().toSec(), 1.5, 1e-6);
}

TEST_F(InstanceTest, QueriesServedCounts)
{
    inst->enqueue(makeQuery(1, 0.1, 0.0));
    inst->enqueue(makeQuery(2, 0.1, 0.0));
    sim.run();
    EXPECT_EQ(inst->queriesServed(), 2u);
}

TEST_F(InstanceTest, CoreBusyStateFollowsService)
{
    inst->enqueue(makeQuery(1, 1.2, 0.3));
    EXPECT_EQ(chip.core(coreId).state(), Core::State::Busy);
    sim.run();
    EXPECT_EQ(chip.core(coreId).state(), Core::State::Idle);
}

TEST_F(InstanceTest, ZeroWorkQueryCompletesImmediately)
{
    inst->enqueue(makeQuery(1, 0.0, 0.0));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->hop(done[0]->numHops() - 1).serving(), SimTime::zero());
}

TEST(InstanceDeath, NullQueryPanics)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 1);
    const int core = *chip.acquireCore(0);
    ServiceInstance inst(1, "X_1", 0, &sim, &chip, core, [](QueryPtr) {});
    EXPECT_DEATH(inst.enqueue(nullptr), "null query");
}

} // namespace
} // namespace pc
