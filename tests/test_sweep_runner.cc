/**
 * @file
 * Sweep-engine tests: bit-determinism across thread counts,
 * submission-order collection under adversarial run durations, and the
 * determinism audit catching an injected nondeterministic run function.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "exp/thread_pool.h"

namespace pc {
namespace {

/** A real but tiny simulation: finishes in milliseconds. */
Scenario
quickScenario(int seed)
{
    Scenario sc =
        Scenario::mitigation(WorkloadModel::nlp(), LoadLevel::Medium,
                             PolicyKind::PowerChief, seed);
    sc.duration = SimTime::sec(60);
    sc.name = "quick/" + std::to_string(seed);
    return sc;
}

std::string
dumped(const RunResult &r)
{
    return runResultToJson(r).dump();
}

// ------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryTaskAndIsReusableAfterWait)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 20);
}

// ------------------------------------------------------- determinism

TEST(SweepRunner, ResultsIdenticalAcrossThreadCounts)
{
    std::vector<Scenario> scenarios;
    for (int seed = 1; seed <= 6; ++seed)
        scenarios.push_back(quickScenario(seed));

    std::vector<std::vector<std::string>> perJobs;
    for (int jobs : {1, 2, 8}) {
        SweepOptions opt;
        opt.jobs = jobs;
        SweepRunner sweep(opt);
        std::vector<std::string> dumps;
        for (const RunResult &r : sweep.runAll(scenarios))
            dumps.push_back(dumped(r));
        perJobs.push_back(std::move(dumps));
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("scenario " + scenarios[i].name);
        EXPECT_EQ(perJobs[0][i], perJobs[1][i]) << "jobs=1 vs jobs=2";
        EXPECT_EQ(perJobs[0][i], perJobs[2][i]) << "jobs=1 vs jobs=8";
    }
}

TEST(SweepRunner, CollectsInSubmissionOrderUnderAdversarialDurations)
{
    // Earlier submissions take longest, so with 4 workers the
    // completion order is roughly the reverse of submission order.
    constexpr int kRuns = 12;
    SweepOptions opt;
    opt.jobs = 4;
    SweepRunner sweep(opt);
    sweep.setRunFunction([](const Scenario &sc) {
        const auto idx = static_cast<int>(sc.seed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds((kRuns - idx) * 3));
        RunResult r;
        r.scenario = sc.name;
        r.completed = static_cast<std::uint64_t>(idx);
        return r;
    });

    std::vector<Scenario> scenarios;
    for (int i = 0; i < kRuns; ++i) {
        Scenario sc;
        sc.name = "stub/" + std::to_string(i);
        sc.seed = static_cast<std::uint64_t>(i);
        scenarios.push_back(sc);
    }
    const std::vector<RunResult> results = sweep.runAll(scenarios);
    ASSERT_EQ(results.size(), scenarios.size());
    for (int i = 0; i < kRuns; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].completed,
                  static_cast<std::uint64_t>(i));
        EXPECT_EQ(results[static_cast<std::size_t>(i)].scenario,
                  scenarios[static_cast<std::size_t>(i)].name);
    }
}

// ------------------------------------------------------------- audit

TEST(SweepRunner, AuditPassesOnDeterministicRuns)
{
    SweepOptions opt;
    opt.jobs = 2;
    opt.audit = true;
    opt.auditFraction = 1.0;
    opt.auditFatal = false;
    SweepRunner sweep(opt);
    const std::vector<Scenario> scenarios = {quickScenario(1),
                                             quickScenario(2)};
    sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().audited, scenarios.size());
    EXPECT_TRUE(sweep.report().divergences.empty());
}

TEST(SweepRunner, AuditDetectsInjectedNondeterminism)
{
    SweepOptions opt;
    opt.jobs = 2;
    opt.audit = true;
    opt.auditFraction = 1.0;
    opt.auditFatal = false; // record instead of fatal() for the test
    SweepRunner sweep(opt);

    // Every invocation returns a different result: the serial audit
    // re-run can never match the parallel pass.
    auto counter = std::make_shared<std::atomic<int>>(0);
    sweep.setRunFunction([counter](const Scenario &sc) {
        RunResult r;
        r.scenario = sc.name;
        r.avgLatencySec = counter->fetch_add(1);
        return r;
    });

    std::vector<Scenario> scenarios(3);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        scenarios[i].name = "nondet/" + std::to_string(i);
    sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().audited, scenarios.size());
    ASSERT_FALSE(sweep.report().divergences.empty());
    const SweepDivergence &d = sweep.report().divergences.front();
    EXPECT_NE(d.parallelJson, d.serialJson);
    EXPECT_FALSE(d.scenario.empty());
}

} // namespace
} // namespace pc
