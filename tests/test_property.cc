/**
 * @file
 * Property-based and model-checking tests: randomized torture of the
 * simulator, queueing-theory validation of the service machinery
 * (M/M/1), randomized DVFS-rescale checking against an analytic
 * reference integrator, moving-window vs naive reference, and budget
 * fuzzing under random operation sequences.
 */

#include <deque>
#include <map>

#include <gtest/gtest.h>

#include "app/service_instance.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "power/budget.h"
#include "stats/window.h"
#include "test_query_slab.h"

namespace pc {
namespace {

// ------------------------------------------------- simulator torture

TEST(PropertySimulator, RandomScheduleCancelMatchesReference)
{
    // Random mix of schedules and cancels; the set of executed events
    // must equal the reference (scheduled minus successfully
    // cancelled) and fire in timestamp order.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Simulator sim;
        Rng rng(seed);
        std::map<EventId, SimTime> expected;
        std::vector<std::pair<SimTime, EventId>> fired;

        std::vector<EventId> live;
        for (int i = 0; i < 500; ++i) {
            if (!live.empty() && rng.bernoulli(0.3)) {
                const std::size_t pick = static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<long>(live.size()) - 1));
                const EventId id = live[pick];
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
                ASSERT_TRUE(sim.cancel(id));
                expected.erase(id);
            } else {
                const SimTime at =
                    SimTime::usec(rng.uniformInt(0, 1000000));
                const EventId id = sim.scheduleAt(at, [&fired, &sim]() {
                    fired.push_back({sim.now(), 0});
                });
                live.push_back(id);
                expected[id] = at;
            }
        }
        sim.run();
        ASSERT_EQ(fired.size(), expected.size());
        for (std::size_t i = 1; i < fired.size(); ++i)
            EXPECT_LE(fired[i - 1].first, fired[i].first);
    }
}

TEST(PropertySimulator, CancelAfterFireReturnsFalse)
{
    // Once an event has executed (or was already cancelled), cancel()
    // must refuse — under any random schedule.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Simulator sim;
        Rng rng(seed);
        std::vector<EventId> ids;
        for (int i = 0; i < 200; ++i)
            ids.push_back(sim.scheduleAt(
                SimTime::usec(rng.uniformInt(0, 50000)), []() {}));
        // Cancel a random subset before running.
        std::vector<EventId> cancelled;
        for (const EventId id : ids) {
            if (rng.bernoulli(0.25)) {
                ASSERT_TRUE(sim.cancel(id));
                cancelled.push_back(id);
            }
        }
        sim.run();
        for (const EventId id : ids)
            EXPECT_FALSE(sim.cancel(id));
        for (const EventId id : cancelled)
            EXPECT_FALSE(sim.cancel(id));
    }
}

TEST(PropertySimulator, EqualTimestampsFireInScheduleOrder)
{
    // 1k random schedules/cancels drawn from a tiny timestamp set so
    // ties are the common case: among surviving events with equal
    // timestamps, execution order must equal schedule order.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Simulator sim;
        Rng rng(seed);

        int scheduleSeq = 0;
        std::vector<std::pair<SimTime, int>> fired;
        std::vector<std::pair<EventId, int>> live; // id -> seq
        for (int op = 0; op < 1000; ++op) {
            if (!live.empty() && rng.bernoulli(0.25)) {
                const std::size_t pick = static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<long>(live.size()) - 1));
                ASSERT_TRUE(sim.cancel(live[pick].first));
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            } else {
                // Only 8 distinct timestamps: collisions guaranteed.
                const SimTime at =
                    SimTime::msec(10 * rng.uniformInt(1, 8));
                const int seq = scheduleSeq++;
                const EventId id =
                    sim.scheduleAt(at, [&fired, &sim, seq]() {
                        fired.push_back({sim.now(), seq});
                    });
                live.push_back({id, seq});
            }
        }
        sim.run();
        ASSERT_EQ(fired.size(), live.size());
        for (std::size_t i = 1; i < fired.size(); ++i) {
            ASSERT_LE(fired[i - 1].first, fired[i].first);
            if (fired[i - 1].first == fired[i].first) {
                EXPECT_LT(fired[i - 1].second, fired[i].second)
                    << "tie at t=" << fired[i].first.toSec()
                    << " s broke schedule order (seed=" << seed << ")";
            }
        }
    }
}

// ---------------------------------------------------- M/M/1 validation

TEST(PropertyQueueing, MM1MeanSojournMatchesTheory)
{
    // Exponential service (cv=1 lognormal is NOT exponential, so build
    // demands directly from an exponential draw), Poisson arrivals:
    // the mean sojourn time must match 1/(mu - lambda).
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 1);
    const int core = *chip.acquireCore(0); // 1.2 GHz = reference

    double sumSojourn = 0.0;
    std::uint64_t n = 0;
    std::map<std::int64_t, SimTime> arrivals;
    ServiceInstance inst(1, "S_1", 0, &sim, &chip, core,
                         [&](QueryPtr q) {
                             sumSojourn +=
                                 (sim.now() - arrivals[q->id()]).toSec();
                             ++n;
                         });

    const double mu = 2.0;      // service rate
    const double lambda = 1.2;  // arrival rate (rho = 0.6)
    Rng rng(99);
    SimTime t;
    for (int i = 0; i < 40000; ++i) {
        t += SimTime::sec(rng.exponential(1.0 / lambda));
        const double service = rng.exponential(1.0 / mu);
        sim.scheduleAt(t, [&, i, service]() {
            arrivals[i] = sim.now();
            inst.enqueue(testQuery(
                i, sim.now(),
                std::vector<WorkDemand>{{0.0, service}}));
        });
    }
    sim.run();
    ASSERT_EQ(n, 40000u);
    const double theory = 1.0 / (mu - lambda); // 1.25 s
    EXPECT_NEAR(sumSojourn / static_cast<double>(n), theory,
                0.08 * theory);
}

TEST(PropertyQueueing, UtilizationMatchesRho)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 1);
    const int core = *chip.acquireCore(0);
    ServiceInstance inst(1, "S_1", 0, &sim, &chip, core, [](QueryPtr) {});

    const double mu = 4.0;
    const double lambda = 2.0;
    Rng rng(7);
    SimTime t;
    for (int i = 0; i < 20000; ++i) {
        t += SimTime::sec(rng.exponential(1.0 / lambda));
        const double service = rng.exponential(1.0 / mu);
        sim.scheduleAt(t, [&inst, i, service, &sim]() {
            inst.enqueue(testQuery(
                i, sim.now(),
                std::vector<WorkDemand>{{0.0, service}}));
        });
    }
    sim.run();
    const double horizon = sim.now().toSec();
    EXPECT_NEAR(inst.totalBusyTime().toSec() / horizon, 0.5, 0.03);
}

// --------------------------------------------- DVFS rescale reference

/**
 * Analytic reference: integrate progress across a piecewise-constant
 * frequency schedule and return the total service duration.
 */
double
referenceServiceSec(const WorkDemand &demand,
                    const std::vector<std::pair<double, int>> &changes,
                    const FrequencyLadder &ladder, int startLevel)
{
    double progress = 0.0;
    double t = 0.0;
    int level = startLevel;
    std::size_t next = 0;
    while (true) {
        const double total = demand.serviceSec(
            ladder.freqAt(level).value(), ladder.freqAt(0).value());
        const double finishAt = t + (1.0 - progress) * total;
        if (next < changes.size() && changes[next].first < finishAt) {
            progress += (changes[next].first - t) / total;
            t = changes[next].first;
            level = changes[next].second;
            ++next;
        } else {
            return finishAt;
        }
    }
}

class RescaleFuzz : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RescaleFuzz, RandomFrequencyScheduleMatchesReference)
{
    Rng rng(GetParam());
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 1);
    const auto &ladder = model.ladder();
    const int startLevel =
        static_cast<int>(rng.uniformInt(0, ladder.maxLevel()));
    const int core = *chip.acquireCore(startLevel);

    WorkDemand demand;
    demand.cpuSecAtRef = rng.uniform(0.5, 5.0);
    demand.memSec = rng.uniform(0.0, 1.0);

    // Random schedule of 1-8 frequency changes over the service.
    std::vector<std::pair<double, int>> changes;
    double t = 0.0;
    const int n = static_cast<int>(rng.uniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
        t += rng.uniform(0.05, 0.6);
        changes.push_back(
            {t, static_cast<int>(rng.uniformInt(0, ladder.maxLevel()))});
    }

    double served = -1.0;
    ServiceInstance inst(1, "S_1", 0, &sim, &chip, core,
                         [&](QueryPtr q) {
                             served = q->hop(q->numHops() - 1).serving().toSec();
                         });
    inst.enqueue(testQuery(
        1, sim.now(), std::vector<WorkDemand>{demand}));
    for (const auto &[when, level] : changes) {
        sim.scheduleAt(SimTime::sec(when), [&chip, core, level = level]() {
            if (chip.core(core).state() != Core::State::Offline)
                chip.core(core).setLevel(level);
        });
    }
    sim.run();

    const double expect =
        referenceServiceSec(demand, changes, ladder, startLevel);
    ASSERT_GE(served, 0.0);
    EXPECT_NEAR(served, expect, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RescaleFuzz,
                         testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------ window vs reference

TEST(PropertyWindow, MatchesNaiveReferenceUnderRandomStream)
{
    Rng rng(5);
    MovingWindow window(SimTime::sec(10));
    std::deque<std::pair<SimTime, double>> reference;
    SimTime t;
    for (int i = 0; i < 3000; ++i) {
        t += SimTime::msec(rng.uniform(0, 200));
        const double v = rng.uniform(0, 100);
        window.add(t, v);
        reference.push_back({t, v});
        const SimTime cutoff = t - SimTime::sec(10);
        while (!reference.empty() && reference.front().first < cutoff)
            reference.pop_front();

        ASSERT_EQ(window.size(), reference.size());
        double sum = 0;
        double mx = 0;
        for (const auto &[rt, rv] : reference) {
            sum += rv;
            mx = std::max(mx, rv);
        }
        ASSERT_NEAR(window.mean(),
                    sum / static_cast<double>(reference.size()), 1e-9);
        ASSERT_NEAR(window.max(), mx, 1e-12);
    }
}

// ------------------------------------------- ring queue vs reference

TEST(PropertyRingQueue, MatchesDequeUnderRandomOperations)
{
    // Pushes and pops at both ends, across wrap-around and growth while
    // wrapped, must keep exactly std::deque's contents.
    Rng rng(17);
    RingQueue<int> ring;
    std::deque<int> reference;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.55 || reference.empty()) {
            ring.push_back(i);
            reference.push_back(i);
        } else if (u < 0.9) {
            ASSERT_EQ(ring.front(), reference.front());
            ring.pop_front();
            reference.pop_front();
        } else {
            ASSERT_EQ(ring.back(), reference.back());
            ring.pop_back();
            reference.pop_back();
        }
        ASSERT_EQ(ring.size(), reference.size());
        if (i % 97 == 0) {
            for (std::size_t k = 0; k < reference.size(); ++k)
                ASSERT_EQ(ring[k], reference[k]);
        }
        if (i % 5000 == 4999) {
            ring.clear();
            reference.clear();
        }
    }
}

// ---------------------------------------------------- budget fuzzing

TEST(PropertyBudget, RandomOperationSequencePreservesInvariants)
{
    const PowerModel model = PowerModel::haswell();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        PowerBudget budget(Watts(rng.uniform(5.0, 50.0)), &model);
        std::map<std::int64_t, int> reference;
        std::int64_t nextId = 1;

        for (int step = 0; step < 2000; ++step) {
            const double dice = rng.uniform(0, 1);
            if (dice < 0.4 || reference.empty()) {
                const int level = static_cast<int>(
                    rng.uniformInt(0, model.ladder().maxLevel()));
                const std::int64_t id = nextId++;
                if (budget.allocate(id, level))
                    reference[id] = level;
            } else if (dice < 0.7) {
                auto it = reference.begin();
                std::advance(it, rng.uniformInt(
                    0, static_cast<long>(reference.size()) - 1));
                const int level = static_cast<int>(
                    rng.uniformInt(0, model.ladder().maxLevel()));
                if (budget.updateLevel(it->first, level))
                    it->second = level;
            } else {
                auto it = reference.begin();
                std::advance(it, rng.uniformInt(
                    0, static_cast<long>(reference.size()) - 1));
                budget.release(it->first);
                reference.erase(it);
            }

            // Invariant 1: ledger equals the reference sum.
            double sum = 0.0;
            for (const auto &[id, level] : reference)
                sum += model.activeWatts(level).value();
            ASSERT_NEAR(budget.allocated().value(), sum, 1e-6);
            // Invariant 2: never exceeds the cap.
            ASSERT_LE(budget.allocated().value(),
                      budget.cap().value() + 1e-6);
            // Invariant 3: per-consumer levels agree.
            for (const auto &[id, level] : reference)
                ASSERT_EQ(budget.levelOf(id), level);
            ASSERT_EQ(budget.numConsumers(), reference.size());
        }
    }
}

} // namespace
} // namespace pc
