/**
 * @file
 * The sharded engine's core guarantee, tested end to end: a scenario
 * with node groups produces bit-identical results and artifacts at ANY
 * worker count — clean or under a lossy fault plan, serial or through
 * the parallel sweep pool. Plus unit tests of the conservative
 * time-window engine itself (sim/sharded_engine.h).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"
#include "sim/sharded_engine.h"

namespace pc {
namespace {

// ------------------------------------------------------ ShardedEngine

TEST(ShardedEngine, DirectSchedulingRunsToDeadline)
{
    ShardedEngine engine(2, SimTime::msec(10));
    std::vector<int> order;
    engine.shard(0).scheduleAt(SimTime::msec(5),
                               [&order]() { order.push_back(0); });
    engine.shard(1).scheduleAt(SimTime::msec(7),
                               [&order]() { order.push_back(1); });
    engine.run(SimTime::msec(20), 1);
    EXPECT_EQ(order.size(), 2u);
    EXPECT_EQ(engine.now(), SimTime::msec(20));
    EXPECT_EQ(engine.shard(0).now(), SimTime::msec(20));
    EXPECT_EQ(engine.shard(1).now(), SimTime::msec(20));
    EXPECT_EQ(engine.crossShardEvents(), 0u);
}

TEST(ShardedEngine, CrossShardPostDeliversAtLookahead)
{
    const SimTime lookahead = SimTime::msec(10);
    ShardedEngine engine(2, lookahead);
    SimTime delivered = SimTime::zero();
    // At t=3ms shard 0 posts to shard 1 with the minimum legal delay
    // (the lookahead): the message crosses one window barrier and runs
    // on shard 1's own event loop at exactly t=13ms.
    engine.shard(0).scheduleAt(SimTime::msec(3), [&]() {
        engine.post(0, 1, engine.shard(0).now() + lookahead, [&]() {
            delivered = engine.shard(1).now();
        });
    });
    engine.run(SimTime::msec(50), 2);
    EXPECT_EQ(delivered, SimTime::msec(13));
    EXPECT_EQ(engine.crossShardEvents(), 1u);
}

TEST(ShardedEngine, SameShardPostSchedulesDirectly)
{
    ShardedEngine engine(2, SimTime::msec(10));
    bool ran = false;
    // from == to bypasses the mailboxes entirely, so sub-lookahead
    // delays are legal (it is a local event).
    engine.shard(0).scheduleAt(SimTime::msec(1), [&]() {
        engine.post(0, 0, SimTime::msec(2), [&]() { ran = true; });
    });
    engine.run(SimTime::msec(5), 1);
    EXPECT_TRUE(ran);
    EXPECT_EQ(engine.crossShardEvents(), 0u);
}

TEST(ShardedEngine, DeliveryOrderIndependentOfWorkerCount)
{
    // Two shards spray messages at each other every window; the
    // receive order on each shard must be identical at 1 and 2
    // workers. Messages from different sources landing at one dst in
    // the same window drain in ascending src order.
    const auto runOnce = [](int workers) {
        const SimTime lookahead = SimTime::msec(10);
        ShardedEngine engine(3, lookahead);
        std::vector<std::string> log;
        for (int src = 0; src < 3; ++src) {
            engine.shard(src).schedulePeriodic(
                SimTime::msec(1), SimTime::msec(7), [&engine, src]() {
                    const int dst = (src + 1) % 3;
                    engine.post(
                        src, dst,
                        engine.shard(src).now() + SimTime::msec(10),
                        []() {});
                });
        }
        engine.shard(1).schedulePeriodic(
            SimTime::msec(2), SimTime::msec(5), [&engine, &log]() {
                log.push_back("tick@" +
                              std::to_string(
                                  engine.shard(1).now().toUsec()));
            });
        engine.run(SimTime::msec(100), workers);
        log.push_back("events=" +
                      std::to_string(engine.crossShardEvents()));
        return log;
    };
    const auto serial = runOnce(1);
    const auto parallel = runOnce(2);
    const auto oversubscribed = runOnce(8); // workers > shards clamps
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, oversubscribed);
}

TEST(ShardedEngine, UndeclaredChannelsSyncEveryWindow)
{
    // No schedule declared: any channel may post at any time, so every
    // window is a barrier round.
    ShardedEngine engine(2, SimTime::msec(10));
    engine.run(SimTime::msec(100), 2);
    EXPECT_EQ(engine.syncRounds(), 10u);
    engine.run(SimTime::msec(125), 2); // a short last window
    EXPECT_EQ(engine.syncRounds(), 13u);
}

TEST(ShardedEngine, DeclaredScheduleSyncsOnlyItsWindows)
{
    const auto runOnce = [](int workers) {
        const SimTime lookahead = SimTime::msec(10);
        ShardedEngine engine(3, lookahead);
        for (int from = 0; from < 3; ++from)
            for (int to = 0; to < 3; ++to)
                if (from != to)
                    engine.declare(from, to,
                                   ShardedEngine::PostSchedule::never());
        engine.declare(1, 0,
                       ShardedEngine::PostSchedule::every(
                           SimTime::msec(15), SimTime::msec(50)));
        std::vector<std::int64_t> delivered;
        engine.shard(1).schedulePeriodic(
            SimTime::msec(15), SimTime::msec(50), [&]() {
                engine.post(1, 0, engine.shard(1).now() + lookahead,
                            [&]() {
                                delivered.push_back(
                                    engine.shard(0).now().toUsec());
                            });
            });
        engine.run(SimTime::msec(200), workers);
        // Posts leave at 15, 65, 115 and 165 ms: one round each.
        EXPECT_EQ(engine.syncRounds(), 4u);
        EXPECT_EQ(engine.crossShardEvents(), 4u);
        return delivered;
    };
    const std::vector<std::int64_t> expected = {25000, 75000, 125000,
                                                175000};
    EXPECT_EQ(runOnce(1), expected);
    EXPECT_EQ(runOnce(3), expected);
}

/**
 * A feed whose source sends one item per tick of its own periodic
 * event, to shard 1, delivered one lookahead later.
 */
class TickFeed final : public ShardedEngine::Feed
{
  public:
    TickFeed(std::vector<SimTime> times, SimTime latency,
             std::vector<std::string> *log)
        : times_(std::move(times)), latency_(latency), log_(log)
    {
    }

    std::uint64_t sent() const override { return sent_; }
    void tick() { ++sent_; }

    std::uint64_t
    deliver(int, Simulator &sim, SimTime until,
            std::uint64_t limit) override
    {
        std::uint64_t n = 0;
        while (next_ < times_.size() && times_[next_] <= until &&
               next_ < limit) {
            const std::string name = "item" + std::to_string(next_);
            sim.scheduleAt(times_[next_] + latency_,
                           [log = log_, name]() { log->push_back(name); });
            ++next_;
            ++n;
        }
        return n;
    }

  private:
    std::vector<SimTime> times_;
    SimTime latency_;
    std::vector<std::string> *log_;
    std::uint64_t sent_ = 0;
    std::size_t next_ = 0;
};

TEST(ShardedEngine, FeedItemsInterleaveWithPostsInSendOrder)
{
    // Shard 0 sends feed items at 2, 4, 4, 6 and 13 ms and posts once
    // at 4 ms, between its two 4 ms items: the three 14 ms deliveries
    // land on shard 1 in exactly that send order, at any worker count.
    // The 13 ms item is delivered after shard 1 has run its own second
    // window, so a 23 ms event shard 1 scheduled in that window runs
    // first.
    const auto runOnce = [](int workers) {
        const SimTime lookahead = SimTime::msec(10);
        ShardedEngine engine(2, lookahead);
        engine.declare(0, 1,
                       ShardedEngine::PostSchedule::every(
                           SimTime::msec(4), SimTime::sec(1)));
        engine.declare(1, 0, ShardedEngine::PostSchedule::never());
        std::vector<std::string> log;
        const std::vector<SimTime> times = {
            SimTime::msec(2), SimTime::msec(4), SimTime::msec(4),
            SimTime::msec(6), SimTime::msec(13)};
        TickFeed feed(times, lookahead, &log);
        engine.setFeed(0, &feed);
        const auto tick = [&feed]() { feed.tick(); };
        engine.shard(0).scheduleAt(times[0], tick);
        engine.shard(0).scheduleAt(times[1], tick);
        engine.shard(0).scheduleAt(SimTime::msec(4), [&]() {
            engine.post(0, 1, engine.shard(0).now() + lookahead,
                        [&log]() { log.push_back("post"); });
        });
        engine.shard(0).scheduleAt(times[2], tick);
        engine.shard(0).scheduleAt(times[3], tick);
        engine.shard(0).scheduleAt(times[4], tick);
        engine.shard(1).scheduleAt(SimTime::msec(15), [&]() {
            engine.shard(1).scheduleAt(SimTime::msec(23), [&log]() {
                log.push_back("local");
            });
        });
        engine.run(SimTime::msec(30), workers);
        EXPECT_EQ(engine.syncRounds(), 1u);
        EXPECT_EQ(engine.feedDeliveries(), 5u);
        return log;
    };
    const std::vector<std::string> expected = {
        "item0", "item1", "post", "item2", "item3", "local", "item4"};
    EXPECT_EQ(runOnce(1), expected);
    EXPECT_EQ(runOnce(2), expected);
}

TEST(ShardedEngineDeath, PostOutsideDeclaredScheduleIsFatal)
{
    const auto postAt = [](double ms) {
        const SimTime lookahead = SimTime::msec(10);
        ShardedEngine engine(2, lookahead);
        engine.declare(0, 1,
                       ShardedEngine::PostSchedule::every(
                           SimTime::msec(5), SimTime::msec(20)));
        engine.shard(0).scheduleAt(SimTime::msec(ms), [&]() {
            engine.post(0, 1, engine.shard(0).now() + lookahead, []() {});
        });
        engine.run(SimTime::msec(50), 1);
    };
    EXPECT_DEATH(postAt(13), "cross-shard post 0 -> 1 at 0.013000 s is "
                             "outside the channel's declared schedule "
                             "\\(posts every 20ms from 5ms\\): it would "
                             "have needed the window ending at 0.020000 s");
    const auto undeclaredReverse = []() {
        ShardedEngine engine(2, SimTime::msec(10));
        engine.declare(1, 0, ShardedEngine::PostSchedule::never());
        engine.shard(1).scheduleAt(SimTime::msec(1), [&]() {
            engine.post(1, 0, SimTime::msec(20), []() {});
        });
        engine.run(SimTime::msec(50), 1);
    };
    EXPECT_DEATH(undeclaredReverse(), "1 -> 0 .*\\(never posts\\)");
}

// ------------------------------------------- sharded run determinism

/** Small but real sharded scenario: 4 groups, cross-group spray. */
Scenario
shardedScenario(bool withFaults)
{
    Scenario sc = Scenario::millionQuery(/*nodeGroups=*/4,
                                         /*totalQueries=*/4000,
                                         /*durationSec=*/10.0,
                                         /*seed=*/777);
    if (withFaults) {
        sc.faults.active = true;
        sc.faults.seed = 99;
        BusFaultRule lossy;
        lossy.endpoint = "*";
        lossy.dropRate = 0.05;
        lossy.duplicateRate = 0.02;
        lossy.reorderRate = 0.1;
        sc.faults.bus.push_back(lossy);
        sc.name += "/lossy";
    }
    return sc;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

class ShardedDeterminism : public ::testing::TestWithParam<bool>
{
};

TEST_P(ShardedDeterminism, ResultBitIdenticalAtAnyWorkerCount)
{
    const Scenario sc = shardedScenario(GetParam());
    std::string reference;
    for (const int workers : {1, 2, 4, 8}) {
        ExperimentRunner runner(/*recordTraces=*/true);
        runner.setShards(workers);
        const RunResult result = runner.run(sc);
        EXPECT_GT(result.completed, 0u);
        EXPECT_GE(result.submitted, result.completed);
        const std::string json = runResultToJson(result).dump();
        if (reference.empty())
            reference = json;
        else
            EXPECT_EQ(json, reference)
                << "diverged at " << workers << " workers";
    }
}

TEST_P(ShardedDeterminism, ArtifactsByteIdenticalAtAnyWorkerCount)
{
    const Scenario sc = shardedScenario(GetParam());
    const std::string dir = ::testing::TempDir();
    const std::string tag = GetParam() ? "lossy" : "clean";
    std::string refTrace, refAudit, refTimeseries, refCritpath,
        refMetrics;
    for (const int workers : {1, 4}) {
        TelemetryConfig telemetry;
        const std::string base =
            dir + "/sharded_" + tag + std::to_string(workers);
        telemetry.traceOut = base + ".trace.json";
        telemetry.metricsOut = base + ".metrics.json";
        telemetry.auditOut = base + ".audit.json";
        telemetry.timeseriesOut = base + ".timeseries.json";
        telemetry.critpathOut = base + ".critpath.json";
        SloConfig slo;
        slo.enabled = true;
        ExperimentRunner runner(/*recordTraces=*/false,
                                SimTime::sec(5),
                                /*attribution=*/false,
                                /*collectAudit=*/false, slo);
        runner.setShards(workers);
        const RunResult result = runner.run(sc, &telemetry);
        EXPECT_GT(result.completed, 0u);
        const std::string trace = slurp(telemetry.traceOut);
        const std::string metrics = slurp(telemetry.metricsOut);
        const std::string audit = slurp(telemetry.auditOut);
        const std::string timeseries = slurp(telemetry.timeseriesOut);
        const std::string critpath = slurp(telemetry.critpathOut);
        EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(audit.find("powerchief-sharded-v1"),
                  std::string::npos);
        EXPECT_NE(timeseries.find("\"slo\""), std::string::npos);
        if (refTrace.empty()) {
            refTrace = trace;
            refMetrics = metrics;
            refAudit = audit;
            refTimeseries = timeseries;
            refCritpath = critpath;
        } else {
            EXPECT_EQ(trace, refTrace);
            EXPECT_EQ(metrics, refMetrics);
            EXPECT_EQ(audit, refAudit);
            EXPECT_EQ(timeseries, refTimeseries);
            EXPECT_EQ(critpath, refCritpath);
        }
    }
}

TEST_P(ShardedDeterminism, SweepPoolJobsDoNotChangeResults)
{
    // The outer sweep pool (--jobs) and the inner shard workers
    // (--shards) compose: any (jobs, shards) pair gives the same
    // bytes, including more shard workers than node groups. Two sweep
    // points (different seeds) keep the pool busy.
    const bool withFaults = GetParam();
    std::vector<Scenario> points;
    points.push_back(shardedScenario(withFaults));
    Scenario other = shardedScenario(withFaults);
    other.seed = 1234;
    other.name += "/seed1234";
    points.push_back(other);

    std::string reference;
    for (const int jobs : {1, 3}) {
        for (const int shards : {1, 2, 8}) {
            SweepOptions options;
            options.jobs = jobs;
            options.shards = shards;
            SweepRunner sweep(options);
            const std::vector<RunResult> results =
                sweep.runAll(points);
            std::string json;
            for (const RunResult &result : results)
                json += runResultToJson(result).dump() + "\n";
            if (reference.empty())
                reference = json;
            else
                EXPECT_EQ(json, reference)
                    << "diverged at jobs=" << jobs
                    << " shards=" << shards;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CleanAndLossy, ShardedDeterminism,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "lossy" : "clean";
                         });

// ------------------------------------------------ parity pins

/** 4-group fleet under the proportional arbiter: 5 rebalance rounds. */
Scenario
fleetScenario(bool lossy)
{
    Scenario sc = Scenario::fleet(ClusterPolicyKind::ProportionalDemand,
                                  /*nodeGroups=*/4, /*capFraction=*/0.75,
                                  /*durationSec=*/10.0, /*seed=*/31);
    if (lossy) {
        sc.faults.active = true;
        sc.faults.seed = 5;
        BusFaultRule rule;
        rule.endpoint = "*";
        rule.dropRate = 0.05;
        rule.duplicateRate = 0.02;
        rule.reorderRate = 0.1;
        sc.faults.bus.push_back(rule);
        sc.name += "/lossy";
    }
    return sc;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(ShardedParity, ResultsMatchTheEveryWindowBarrierEngine)
{
    // FNV-1a of runResultToJson, recorded with the engine that stopped
    // every shard at two barriers per lookahead window. The spray and
    // the arbiter traffic must land in every destination heap at the
    // same point and in the same order, at any worker count.
    struct Pin
    {
        Scenario sc;
        const char *digest;
    };
    const Pin pins[] = {
        {shardedScenario(false), "41b3989456bab3ae"},
        {fleetScenario(false), "438c216053fd189c"},
        {fleetScenario(true), "ee2a2426503a32a9"},
    };
    for (const Pin &pin : pins) {
        for (const int workers : {1, 2, 4}) {
            ExperimentRunner runner(/*recordTraces=*/true);
            runner.setShards(workers);
            const RunResult result = runner.run(pin.sc);
            EXPECT_EQ(hex64(fnv1a64(runResultToJson(result).dump())),
                      pin.digest)
                << pin.sc.name << " at " << workers << " workers";
        }
    }
}

TEST(ShardedParity, StressedSprayRepeatsExactly)
{
    // 8 groups on 4 workers with a heavy spray: the drawn-ahead chunks
    // change hands between threads all run long, yet every repeat and
    // the 1-worker run produce the same bytes.
    Scenario sc = Scenario::millionQuery(/*nodeGroups=*/8,
                                         /*totalQueries=*/8000,
                                         /*durationSec=*/5.0,
                                         /*seed=*/2024);
    sc.remoteFraction = 0.3;
    const auto digest = [&sc](int workers) {
        ExperimentRunner runner;
        runner.setShards(workers);
        return fnv1a64(runResultToJson(runner.run(sc)).dump());
    };
    const std::uint64_t serial = digest(1);
    for (int repeat = 0; repeat < 20; ++repeat)
        EXPECT_EQ(digest(4), serial) << "repeat " << repeat;
}

/** The "engine" object of a run's metrics envelope. */
JsonObject
engineCounts(const Scenario &sc, int workers, const std::string &path)
{
    TelemetryConfig telemetry;
    telemetry.metricsOut = path;
    ExperimentRunner runner;
    runner.setShards(workers);
    runner.run(sc, &telemetry);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const JsonParseResult parsed = parseJson(buf.str());
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    if (!parsed.ok())
        return {};
    return parsed.value->asObject().at("engine").asObject();
}

TEST(ShardedSync, SprayOnlyRunNeverSyncs)
{
    // The mega shape: every cross-group arrival is read ahead from its
    // source's stream, so no window needs a barrier.
    const std::string path =
        ::testing::TempDir() + "/sharded_sync_spray.metrics.json";
    const JsonObject serial =
        engineCounts(shardedScenario(false), 1, path);
    EXPECT_EQ(serial.at("sync_rounds").asNumber(), 0.0);
    EXPECT_EQ(serial.at("cross_shard_posts").asNumber(), 0.0);
    EXPECT_GT(serial.at("remote_arrivals").asNumber(), 0.0);
    for (const int workers : {4, 4}) // and again: counts repeat
        EXPECT_EQ(JsonValue(engineCounts(shardedScenario(false), workers,
                                         path))
                      .dump(),
                  JsonValue(serial).dump());
}

TEST(ShardedSync, FleetSyncsTwoWindowsPerRebalanceRound)
{
    // Reports leave at 1 s + 2 s*j and grants at 2 s*j: a fleet round
    // syncs the two windows holding them, never the other 198.
    const Scenario sc = fleetScenario(false);
    const std::string path =
        ::testing::TempDir() + "/sharded_sync_fleet.metrics.json";
    const JsonObject serial = engineCounts(sc, 1, path);
    const double rounds = sc.duration / sc.rebalanceInterval;
    EXPECT_EQ(serial.at("sync_rounds").asNumber(), 2.0 * rounds);
    EXPECT_GT(serial.at("cross_shard_posts").asNumber(), 0.0);
    EXPECT_GT(serial.at("remote_arrivals").asNumber(), 0.0);
    for (const int workers : {2, 4, 4}) // and again: counts repeat
        EXPECT_EQ(JsonValue(engineCounts(sc, workers, path)).dump(),
                  JsonValue(serial).dump());
}

TEST(ShardedTelemetry, DroppedHistogramSamplesChangeNoOtherOutput)
{
    // Without --metrics-out a run's registry keeps histogram moments
    // only. No reader but the metrics dump may depend on the dropped
    // samples: the result is the same bytes with and without the dump,
    // and so is the timeseries envelope (alerts and SLO included).
    const Scenario sc = Scenario::millionQuery(/*nodeGroups=*/2,
                                               /*totalQueries=*/2000,
                                               /*durationSec=*/10.0,
                                               /*seed=*/777);
    const std::string base =
        ::testing::TempDir() + "/sharded_histogram_retention";
    std::string results[2], envelopes[2];
    for (const bool dump : {false, true}) {
        TelemetryConfig telemetry;
        telemetry.alertsEnabled = true;
        telemetry.timeseriesOut =
            base + (dump ? ".dump" : "") + ".timeseries.json";
        if (dump)
            telemetry.metricsOut = base + ".metrics.json";
        SloConfig slo;
        slo.enabled = true;
        ExperimentRunner runner(/*recordTraces=*/false,
                                SimTime::sec(5),
                                /*attribution=*/false,
                                /*collectAudit=*/false, slo);
        runner.setShards(2);
        const RunResult result = runner.run(sc, &telemetry);
        EXPECT_GT(result.completed, 0u);
        results[dump] = runResultToJson(result).dump();
        envelopes[dump] = slurp(telemetry.timeseriesOut);
    }
    EXPECT_NE(envelopes[0].find("\"slo\""), std::string::npos);
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(envelopes[0], envelopes[1]);
}

// ------------------------------------------------------- scenario API

TEST(MillionQueryScenario, ShapeAndDefaults)
{
    const Scenario sc = Scenario::millionQuery();
    EXPECT_EQ(sc.nodeGroups, 8);
    EXPECT_GT(sc.remoteFraction, 0.0);
    EXPECT_GT(sc.interNodeLatency, SimTime::zero());
    EXPECT_EQ(sc.workload.name(), "microservice");
    EXPECT_EQ(sc.name, "mega/8x1000000q");
}

} // namespace
} // namespace pc
