/** @file Unit tests for Query, WorkDemand and HopRecord. */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "app/query.h"

namespace pc {
namespace {

TEST(WorkDemand, ServiceTimeScalesComputeOnly)
{
    WorkDemand d;
    d.cpuSecAtRef = 1.2; // quoted at 1200 MHz
    d.memSec = 0.3;
    EXPECT_DOUBLE_EQ(d.serviceSec(1200, 1200), 1.5);
    EXPECT_DOUBLE_EQ(d.serviceSec(2400, 1200), 0.3 + 0.6);
    EXPECT_DOUBLE_EQ(d.serviceSec(1800, 1200), 0.3 + 0.8);
}

TEST(WorkDemand, PureMemoryIsFrequencyInsensitive)
{
    WorkDemand d;
    d.memSec = 0.5;
    EXPECT_DOUBLE_EQ(d.serviceSec(1200, 1200), 0.5);
    EXPECT_DOUBLE_EQ(d.serviceSec(2400, 1200), 0.5);
}

TEST(WorkDemand, HigherFrequencyNeverSlower)
{
    WorkDemand d;
    d.cpuSecAtRef = 0.7;
    d.memSec = 0.1;
    double prev = 1e9;
    for (int mhz = 1200; mhz <= 2400; mhz += 100) {
        const double t = d.serviceSec(mhz, 1200);
        EXPECT_LE(t, prev);
        prev = t;
    }
}

TEST(HopRecord, QueuingAndServing)
{
    HopRecord hop;
    hop.enqueued = SimTime::sec(1);
    hop.started = SimTime::sec(3);
    hop.finished = SimTime::sec(7);
    EXPECT_EQ(hop.queuing(), SimTime::sec(2));
    EXPECT_EQ(hop.serving(), SimTime::sec(4));
}

TEST(Query, BasicAccessors)
{
    Query q(42, SimTime::sec(5), {WorkDemand{1.0, 0.1}});
    EXPECT_EQ(q.id(), 42);
    EXPECT_EQ(q.arrival(), SimTime::sec(5));
    EXPECT_EQ(q.numStages(), 1);
    EXPECT_FALSE(q.completed());
}

TEST(Query, DemandPerStage)
{
    Query q(1, SimTime::zero(),
            {WorkDemand{1.0, 0.0}, WorkDemand{2.0, 0.5}});
    EXPECT_DOUBLE_EQ(q.demand(0).cpuSecAtRef, 1.0);
    EXPECT_DOUBLE_EQ(q.demand(1).memSec, 0.5);
}

TEST(Query, HopsAccumulateInOrder)
{
    Query q(1, SimTime::zero(), {WorkDemand{}, WorkDemand{}});
    HopRecord first;
    first.instanceId = 10;
    HopRecord second;
    second.instanceId = 20;
    q.addHop(first);
    q.addHop(second);
    ASSERT_EQ(q.numHops(), 2u);
    EXPECT_EQ(q.hop(0).instanceId, 10);
    EXPECT_EQ(q.hop(1).instanceId, 20);
}

TEST(Query, EndToEndLatency)
{
    Query q(1, SimTime::sec(2), {WorkDemand{}});
    q.markCompleted(SimTime::sec(10));
    EXPECT_TRUE(q.completed());
    EXPECT_EQ(q.endToEnd(), SimTime::sec(8));
}

TEST(QuerySlab, ReusedSlotStartsFreshWithItsCapacity)
{
    const QuerySlab::Owner slab = QuerySlab::create();
    const std::vector<WorkDemand> three(3, WorkDemand{1.0, 0.0});
    const Query *first = nullptr;
    {
        QueryPtr q = slab->make(1, SimTime::sec(1), three);
        first = q.get();
        for (int i = 0; i < 9; ++i)
            q->addHop(HopRecord{});
        q->setOutstandingShards(2);
        q->markCompleted(SimTime::sec(4));
        EXPECT_EQ(slab->live(), 1u);
    }
    EXPECT_EQ(slab->live(), 0u);

    const std::vector<WorkDemand> one{WorkDemand{0.5, 0.25}};
    QueryPtr again = slab->make(2, SimTime::sec(7), one);
    EXPECT_EQ(again.get(), first); // the slot came back
    EXPECT_EQ(slab->slots(), 1u);
    EXPECT_EQ(again->id(), 2);
    EXPECT_EQ(again->arrival(), SimTime::sec(7));
    EXPECT_EQ(again->numStages(), 1);
    EXPECT_DOUBLE_EQ(again->demand(0).memSec, 0.25);
    EXPECT_EQ(again->numHops(), 0u);
    EXPECT_EQ(again->outstandingShards(), 0);
    EXPECT_FALSE(again->completed());
}

TEST(QuerySlab, HandlesCountAndTheLastOneRecycles)
{
    const QuerySlab::Owner slab = QuerySlab::create();
    const std::vector<WorkDemand> one(1);
    QueryPtr a = slab->make(1, SimTime::zero(), one);
    QueryPtr b = a;
    QueryPtr c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(a, c);
    a.reset();
    EXPECT_EQ(slab->live(), 1u);
    c = nullptr;
    EXPECT_EQ(slab->live(), 0u);
}

TEST(QuerySlab, OutlivesItsOwnerWhileAnythingIsLive)
{
    // A handle held past the owner (say, by a pending event torn down
    // after its node stack) keeps the slab; the last release frees it.
    QuerySlab::Owner slab = QuerySlab::create();
    QuerySlab *raw = slab.get();
    const std::vector<WorkDemand> one(1);
    QueryPtr held = slab->make(1, SimTime::zero(), one);
    auto block = std::allocate_shared<int>(SlabAllocator<int>(raw), 5);
    slab.reset();
    EXPECT_EQ(held->id(), 1);
    EXPECT_EQ(*block, 5);
    held.reset();
    block.reset(); // frees the slab; a leak shows under ASan
}

TEST(QueryDeath, DemandIndexOutOfRangePanics)
{
    Query q(7, SimTime::zero(), {WorkDemand{}});
    EXPECT_DEATH((void)q.demand(1), "stage");
    EXPECT_DEATH((void)q.demand(-1), "stage");
}

} // namespace
} // namespace pc
