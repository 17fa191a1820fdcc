/** @file Unit tests for the stage dispatcher policies. */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "app/dispatcher.h"
#include "test_query_slab.h"

namespace pc {
namespace {

/** Rig with N instances on one chip; work can be preloaded per queue. */
class DispatcherTest : public testing::Test
{
  protected:
    DispatcherTest() : model(PowerModel::haswell()), chip(&sim, &model, 8)
    {
    }

    ServiceInstance *
    addInstance(int level)
    {
        const int core = *chip.acquireCore(level);
        const std::int64_t id = nextId++;
        instances.push_back(std::make_unique<ServiceInstance>(
            id, "I_" + std::to_string(id), 0, &sim, &chip,
            core, [](QueryPtr) {}));
        raw.push_back(instances.back().get());
        return instances.back().get();
    }

    void
    preload(ServiceInstance *inst, int queries)
    {
        for (int i = 0; i < queries; ++i) {
            inst->enqueue(testQuery(
                1000 + i, SimTime::zero(),
                std::vector<WorkDemand>{{100.0, 0.0}}));
        }
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    std::vector<std::unique_ptr<ServiceInstance>> instances;
    std::vector<ServiceInstance *> raw;
    std::int64_t nextId = 1;
};

TEST_F(DispatcherTest, EmptyPoolReturnsNull)
{
    Dispatcher d(DispatchPolicy::RoundRobin);
    EXPECT_EQ(d.pick({}), nullptr);
}

TEST_F(DispatcherTest, RoundRobinCycles)
{
    addInstance(0);
    addInstance(0);
    addInstance(0);
    Dispatcher d(DispatchPolicy::RoundRobin);
    EXPECT_EQ(d.pick(raw), raw[0]);
    EXPECT_EQ(d.pick(raw), raw[1]);
    EXPECT_EQ(d.pick(raw), raw[2]);
    EXPECT_EQ(d.pick(raw), raw[0]);
}

TEST_F(DispatcherTest, JsqPicksShortestQueue)
{
    addInstance(0);
    addInstance(0);
    addInstance(0);
    preload(raw[0], 3);
    preload(raw[1], 1);
    preload(raw[2], 2);
    Dispatcher d(DispatchPolicy::JoinShortestQueue);
    EXPECT_EQ(d.pick(raw), raw[1]);
}

TEST_F(DispatcherTest, JsqTieBreaksFirst)
{
    addInstance(0);
    addInstance(0);
    Dispatcher d(DispatchPolicy::JoinShortestQueue);
    EXPECT_EQ(d.pick(raw), raw[0]);
}

TEST_F(DispatcherTest, WeightedPrefersFasterAtEqualQueue)
{
    addInstance(0);  // 1.2 GHz
    addInstance(12); // 2.4 GHz
    preload(raw[0], 1);
    preload(raw[1], 1);
    Dispatcher d(DispatchPolicy::WeightedFastest);
    EXPECT_EQ(d.pick(raw), raw[1]);
}

TEST_F(DispatcherTest, WeightedToleratesLongerQueueOnFastCore)
{
    addInstance(0);  // 1.2 GHz, 1 query -> score 2/1200
    addInstance(12); // 2.4 GHz, 2 queries -> score 3/2400
    preload(raw[0], 1);
    preload(raw[1], 2);
    Dispatcher d(DispatchPolicy::WeightedFastest);
    // 3/2400 = 1.25e-3 < 2/1200 = 1.67e-3.
    EXPECT_EQ(d.pick(raw), raw[1]);
}

TEST_F(DispatcherTest, DrainingInstancesExcluded)
{
    addInstance(0);
    addInstance(0);
    raw[0]->setDraining(true);
    Dispatcher d(DispatchPolicy::JoinShortestQueue);
    EXPECT_EQ(d.pick(raw), raw[1]);
}

TEST_F(DispatcherTest, AllDrainingReturnsNull)
{
    addInstance(0);
    raw[0]->setDraining(true);
    Dispatcher d(DispatchPolicy::RoundRobin);
    EXPECT_EQ(d.pick(raw), nullptr);
}

TEST_F(DispatcherTest, NullEntriesIgnored)
{
    addInstance(0);
    std::vector<ServiceInstance *> withNull = {nullptr, raw[0]};
    Dispatcher d(DispatchPolicy::RoundRobin);
    EXPECT_EQ(d.pick(withNull), raw[0]);
}

TEST_F(DispatcherTest, RoundRobinSkipsDrainingWithoutStalling)
{
    addInstance(0);
    addInstance(0);
    addInstance(0);
    raw[1]->setDraining(true);
    Dispatcher d(DispatchPolicy::RoundRobin);
    // Eligible = {0, 2}; successive picks alternate between them.
    EXPECT_EQ(d.pick(raw), raw[0]);
    EXPECT_EQ(d.pick(raw), raw[2]);
    EXPECT_EQ(d.pick(raw), raw[0]);
}

TEST_F(DispatcherTest, PolicyAccessor)
{
    Dispatcher d(DispatchPolicy::WeightedFastest);
    EXPECT_EQ(d.policy(), DispatchPolicy::WeightedFastest);
}

} // namespace
} // namespace pc
