/**
 * @file
 * Allocation accounting for the simulator hot path.
 *
 * The PR-4 perf contract: once the event pool, heap vector and free
 * list have grown to steady state, scheduling, cancelling and
 * dispatching events — including periodic ticks — performs zero heap
 * allocations for callbacks whose captures fit the InplaceFunction
 * inline buffer. This binary replaces the global allocation functions
 * with counting versions to pin that contract.
 *
 * Under ASan/TSan the sanitizer runtime owns the allocator, so the
 * counting assertions are skipped there; the plain and Release ctest
 * legs still enforce them.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/bottleneck.h"
#include "core/withdraw.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PC_SANITIZED 1
#endif
#if !defined(PC_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PC_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace pc {
namespace {

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

class SimAllocTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
#ifdef PC_SANITIZED
        GTEST_SKIP() << "allocation counting is unreliable under "
                        "sanitizer runtimes";
#endif
    }
};

TEST_F(SimAllocTest, SteadyStateScheduleDispatchIsAllocationFree)
{
    Simulator sim;
    std::uint64_t sink = 0;

    // Warm up: grow the pool, the heap vector and their capacities.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 512; ++i)
            sim.scheduleAfter(SimTime::usec(i + 1), [&sink]() { ++sink; });
        sim.run();
    }

    const std::uint64_t before = allocationCount();
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 512; ++i)
            sim.scheduleAfter(SimTime::usec(i + 1), [&sink]() { ++sink; });
        sim.run();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(sink, 20u * 512u);
}

TEST_F(SimAllocTest, SteadyStateCancelPathIsAllocationFree)
{
    Simulator sim;
    std::vector<EventId> ids(512);

    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 512; ++i)
            ids[static_cast<std::size_t>(i)] =
                sim.scheduleAfter(SimTime::usec(i + 1), []() {});
        for (const EventId id : ids)
            sim.cancel(id);
        sim.run();
    }

    const std::uint64_t before = allocationCount();
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 512; ++i)
            ids[static_cast<std::size_t>(i)] =
                sim.scheduleAfter(SimTime::usec(i + 1), []() {});
        for (const EventId id : ids)
            sim.cancel(id);
        sim.run();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
}

TEST_F(SimAllocTest, SteadyStatePeriodicTickIsAllocationFree)
{
    Simulator sim;
    std::uint64_t ticks = 0;
    sim.schedulePeriodic(SimTime::usec(1), SimTime::usec(1),
                         [&ticks]() { ++ticks; });
    sim.runUntil(SimTime::usec(1000));

    const std::uint64_t before = allocationCount();
    sim.runUntil(SimTime::usec(20000));
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(ticks, 20000u);
}

TEST_F(SimAllocTest, RepresentativeBusCaptureSchedulesWithoutAllocating)
{
    // The largest steady-state capture in the runtime: pointer +
    // endpoint id + shared_ptr message (see the static_assert in
    // simulator.h). The shared_ptr is created outside the measured
    // region; moving it into the callback must not allocate.
    Simulator sim;
    int delivered = 0;
    for (int i = 0; i < 64; ++i) {
        auto msg = std::make_shared<int>(i);
        sim.scheduleAfter(SimTime::usec(i + 1),
                          [&delivered, id = std::uint64_t(7),
                           msg = std::move(msg)]() {
                              delivered += static_cast<int>(id) - 7;
                              ++delivered;
                          });
    }
    sim.run();

    auto msg = std::make_shared<int>(99);
    const std::uint64_t before = allocationCount();
    sim.scheduleAfter(SimTime::usec(1),
                      [&delivered, id = std::uint64_t(7),
                       msg = std::move(msg)]() { ++delivered; });
    sim.run();
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(delivered, 65);
}

TEST_F(SimAllocTest, SteadyStateBottleneckObserveIsAllocationFree)
{
    // The dense-id rewrite's contract: once every instance has a local
    // id and the moving windows have grown their ring capacity, the
    // per-completion observe() path — id resolve, window append, stage
    // aggregate — performs zero heap allocations.
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 8);
    MessageBus bus(&sim);
    std::vector<StageSpec> specs = {
        {"A", 2, 0, DispatchPolicy::JoinShortestQueue},
        {"B", 2, 0, DispatchPolicy::JoinShortestQueue},
    };
    MultiStageApp app(&sim, &chip, &bus, "app", specs);
    BottleneckIdentifier identifier(SimTime::sec(30));

    // Snapshot the instance ids once: the real caller observes from a
    // completion callback and never rebuilds the live-instance list.
    struct Target
    {
        std::int64_t id;
        int stage;
    };
    std::vector<Target> targets;
    for (int s = 0; s < app.numStages(); ++s)
        for (const auto *inst : app.stage(s).instances())
            targets.push_back(Target{inst->id(), s});

    std::vector<HopRecord> hops(1);
    const auto feed = [&](SimTime at) {
        for (const Target &t : targets) {
            hops[0].instanceId = t.id;
            hops[0].stageIndex = t.stage;
            hops[0].enqueued = at;
            hops[0].started = at + SimTime::msec(2);
            hops[0].finished = at + SimTime::msec(5);
            identifier.observe(at, hops);
        }
    };

    // Warm up past one full window span (30 s = 3000 feeds at 10 ms):
    // local ids are allocated, and the MovingWindow rings grow to the
    // high-water capacity of a sliding window before eviction kicks in.
    for (int i = 0; i < 4000; ++i)
        feed(SimTime::msec(10 * i));

    const std::uint64_t before = allocationCount();
    for (int i = 4000; i < 6000; ++i)
        feed(SimTime::msec(10 * i));
    EXPECT_EQ(allocationCount() - before, 0u);
}

TEST_F(SimAllocTest, SteadyStateTapQuantilesAreAllocationFree)
{
    // The controller-health taps read p95/p99 of every stage window and
    // of the end-to-end window each interval. Once the windows and the
    // quantile scratch buffers have reached their high-water size, a
    // tap read allocates nothing.
    BottleneckIdentifier identifier(SimTime::sec(30));
    MovingWindow e2e(SimTime::sec(30));
    std::vector<HopRecord> hops(1);
    static constexpr double kTailQs[2] = {0.95, 0.99};
    double tails[2];
    const auto step = [&](int i) {
        const SimTime at = SimTime::msec(10 * i);
        for (int s = 0; s < 2; ++s) {
            hops[0].instanceId = 100 + s;
            hops[0].stageIndex = s;
            hops[0].enqueued = at;
            hops[0].started = at + SimTime::usec(100 * (i % 17));
            hops[0].finished = hops[0].started + SimTime::msec(3);
            identifier.observe(at, hops);
        }
        e2e.add(at, 0.001 * (i % 23));
        if (i % 100 == 0) {
            for (int s = 0; s < 2; ++s)
                identifier.stageDelayQuantiles(s, kTailQs, tails, 2);
            e2e.quantiles(kTailQs, tails, 2);
        }
    };

    for (int i = 0; i < 4000; ++i)
        step(i);
    const std::uint64_t before = allocationCount();
    for (int i = 4000; i < 6000; ++i)
        step(i);
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_GT(tails[1], 0.0);
}

TEST_F(SimAllocTest, NonRetainingHistogramAddIsAllocationFree)
{
    // A registry that is never dumped keeps histogram moments only, so
    // the per-hop latency and queue-depth taps never grow a buffer.
    MetricsRegistry registry(/*keepHistogramSamples=*/false);
    Histogram &h = registry.histogram("app.stage0.wait_sec");
    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 10000; ++i)
        h.add(0.001 * (i % 97));
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(h.count(), 10000u);
}

TEST_F(SimAllocTest, SteadyStateWithdrawScanAllocatesOnlyTheResult)
{
    // checkAndWithdraw's per-instance scan reads the dense tables with
    // zero hash lookups and zero allocations; the only steady-state
    // allocations permitted are the returned ids vector and the ranked
    // snapshot fed in (both bounded, counted here explicitly).
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 8);
    MessageBus bus(&sim);
    std::vector<StageSpec> specs = {
        {"A", 3, 0, DispatchPolicy::JoinShortestQueue},
        {"B", 3, 0, DispatchPolicy::JoinShortestQueue},
    };
    MultiStageApp app(&sim, &chip, &bus, "app", specs);
    PowerBudget budget(Watts(1000.0), &model);
    for (const auto *inst : app.allInstances())
        ASSERT_TRUE(budget.allocate(inst->id(), inst->level()));
    WithdrawMonitor monitor(&sim, &app, &budget, /*threshold=*/0.2);

    // Keep every instance ~90% busy so nothing is ever below the
    // threshold and the scan runs its full six-instance length every
    // interval. The query feeding itself allocates, so only the
    // checkAndWithdraw call is inside the measured region.
    std::int64_t nextId = 1;
    const auto occupyAll = [&]() {
        for (int s = 0; s < app.numStages(); ++s)
            for (auto *inst : app.stage(s).instances())
                inst->enqueue(std::make_shared<Query>(
                    nextId++, sim.now(),
                    std::vector<WorkDemand>{{0.9, 0.0}, {0.9, 0.0}}));
    };

    const SortedSnapshots ranked;
    for (int i = 0; i < 32; ++i) {
        occupyAll();
        sim.runUntil(SimTime::sec(i + 1));
        (void)monitor.checkAndWithdraw(ranked);
    }

    std::uint64_t scanAllocs = 0;
    for (int i = 32; i < 64; ++i) {
        occupyAll();
        sim.runUntil(SimTime::sec(i + 1));
        const std::uint64_t before = allocationCount();
        const auto withdrawn = monitor.checkAndWithdraw(ranked);
        scanAllocs += allocationCount() - before;
        EXPECT_TRUE(withdrawn.empty());
    }
    // Budget: one allocation per call for the (empty) result vector is
    // the ceiling; a correct empty vector allocates nothing at all.
    EXPECT_LE(scanAllocs, 32u);
}

TEST_F(SimAllocTest, SteadyStateStageDispatchIsAllocationFree)
{
    // MultiStageApp::submit -> Stage::submit -> Dispatcher::pick ->
    // ServiceInstance::enqueue. Once the stage's live-instance and the
    // dispatcher's candidate scratch vectors have grown, a dispatch
    // allocates nothing. The queries are built before the measured
    // region, and no instance queues more than a std::deque chunk
    // holds, so queue growth stays out of the count.
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 8);
    MessageBus bus(&sim);
    constexpr int kInstances = 4;
    std::vector<StageSpec> specs = {
        {"A", kInstances, 0, DispatchPolicy::JoinShortestQueue},
    };
    MultiStageApp app(&sim, &chip, &bus, "app", specs);

    constexpr int kPerInstance = 8;
    std::vector<QueryPtr> queries;
    for (int i = 0; i < kInstances * (1 + kPerInstance); ++i)
        queries.push_back(std::make_shared<Query>(
            i + 1, sim.now(), std::vector<WorkDemand>{{1.0, 0.0}}));

    // Warm-up: one query per instance starts its service.
    for (int i = 0; i < kInstances; ++i)
        app.submit(std::move(queries[static_cast<std::size_t>(i)]));

    const std::uint64_t before = allocationCount();
    for (std::size_t i = kInstances; i < queries.size(); ++i)
        app.submit(std::move(queries[i]));
    EXPECT_EQ(allocationCount() - before, 0u)
        << "allocations over " << kInstances * kPerInstance
        << " dispatches";

    // Join-shortest-queue spread the burst evenly.
    for (const ServiceInstance *inst : app.stage(0).instances())
        EXPECT_EQ(inst->waitingCount(),
                  static_cast<std::size_t>(kPerInstance));
}

TEST_F(SimAllocTest, OversizedCaptureFallsBackToOneAllocation)
{
    // Contract boundary: a capture beyond the inline buffer still
    // works, it just pays the InplaceFunction heap fallback.
    struct Big
    {
        char bytes[4 * kInplaceFunctionBufferSize] = {};
    };
    Simulator sim;
    Big big;
    big.bytes[0] = 1;
    int sum = 0;
    const std::uint64_t before = allocationCount();
    sim.scheduleAfter(SimTime::usec(1),
                      [&sum, big]() { sum += big.bytes[0]; });
    EXPECT_GE(allocationCount() - before, 1u);
    sim.run();
    EXPECT_EQ(sum, 1);
}

} // namespace
} // namespace pc
