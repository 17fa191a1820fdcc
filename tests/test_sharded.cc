/**
 * @file
 * The sharded engine's core guarantee, tested end to end: a scenario
 * with node groups produces bit-identical results and artifacts at ANY
 * worker count — clean or under a lossy fault plan, serial or through
 * the parallel sweep pool. Plus unit tests of the conservative
 * time-window engine itself (sim/sharded_engine.h) and of the cache-key
 * treatment of the topology knobs.
 */

#include <cstdio>
#include <filesystem>
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
    // bytes. Two sweep points (different seeds) keep the pool busy.
    const bool withFaults = GetParam();
    std::vector<Scenario> points;
    points.push_back(shardedScenario(withFaults));
    Scenario other = shardedScenario(withFaults);
    other.seed = 1234;
    other.name += "/seed1234";
    points.push_back(other);

    std::string reference;
    for (const int jobs : {1, 3}) {
        for (const int shards : {1, 2}) {
            SweepOptions options;
            options.jobs = jobs;
            options.shards = shards;
            options.useCache = false;
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

/**
 * @p envelope re-serialized without the queries.submitted/completed
 * gauges, which the --metrics-interval snapshot sets in the registry
 * (and the timeseries recorder then samples) only when metrics are
 * dumped.
 */
std::string
withoutSnapshotGauges(const std::string &envelope)
{
    const JsonParseResult parsed = parseJson(envelope);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    if (!parsed.ok())
        return "";
    JsonObject doc = parsed.value->asObject();
    JsonArray shards;
    for (const JsonValue &shard : doc["shards"].asArray()) {
        JsonObject s = shard.asObject();
        JsonObject series = s["series"].asObject();
        series.erase("queries.submitted");
        series.erase("queries.completed");
        s["series"] = JsonValue(std::move(series));
        shards.push_back(JsonValue(std::move(s)));
    }
    doc["shards"] = JsonValue(std::move(shards));
    return JsonValue(std::move(doc)).dump();
}

TEST(ShardedTelemetry, DroppedHistogramSamplesChangeNoOtherOutput)
{
    // Without --metrics-out a run's registry keeps histogram moments
    // only. No reader but the metrics dump may depend on the dropped
    // samples: the result is the same bytes with and without the dump,
    // and so is the timeseries envelope (alerts and SLO included) up
    // to the two snapshot gauges only a dumping run publishes.
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
    EXPECT_EQ(envelopes[0].find("queries.submitted"), std::string::npos);
    EXPECT_NE(envelopes[1].find("queries.submitted"), std::string::npos);
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(withoutSnapshotGauges(envelopes[0]),
              withoutSnapshotGauges(envelopes[1]));
}

// ------------------------------------------------------ cache identity

TEST(ShardedCacheKey, TopologyIsPartOfTheScenarioIdentity)
{
    Scenario base = shardedScenario(false);
    const auto canonical = scenarioCanonical(base);
    ASSERT_TRUE(canonical.has_value());
    EXPECT_NE(canonical->find("|nodes:"), std::string::npos);

    Scenario moreGroups = base;
    moreGroups.nodeGroups = 8;
    EXPECT_NE(*scenarioCanonical(moreGroups), *canonical);

    Scenario moreSpray = base;
    moreSpray.remoteFraction = 0.5;
    EXPECT_NE(*scenarioCanonical(moreSpray), *canonical);

    Scenario slowerWire = base;
    slowerWire.interNodeLatency = SimTime::msec(50);
    EXPECT_NE(*scenarioCanonical(slowerWire), *canonical);

    // Single-node scenarios keep their historical canonical (no
    // "|nodes:" section) so pre-existing cache entries stay valid.
    Scenario singleNode = base;
    singleNode.nodeGroups = 1;
    EXPECT_EQ(scenarioCanonical(singleNode)->find("|nodes:"),
              std::string::npos);
}

TEST(ShardedCacheKey, WorkerCountIsNotPartOfTheSweepKey)
{
    // --shards is a pure execution knob: two sweeps differing only in
    // shards must share cache entries. Exercise through the real
    // cache: run at shards=1, then hit at shards=8.
    const std::string dir =
        ::testing::TempDir() + "/sharded_cache_test";
    std::filesystem::remove_all(dir); // stale entries from prior runs
    const Scenario sc = shardedScenario(false);
    SweepOptions options;
    options.useCache = true;
    options.cacheDir = dir;
    options.shards = 1;
    SweepRunner first(options);
    const RunResult miss = first.runOne(sc);
    EXPECT_EQ(first.report().cacheMisses, 1u);

    options.shards = 8;
    SweepRunner second(options);
    const RunResult hit = second.runOne(sc);
    EXPECT_EQ(second.report().cacheHits, 1u);
    EXPECT_EQ(runResultToJson(hit).dump(),
              runResultToJson(miss).dump());
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
    EXPECT_FALSE(sc.load.canonical().empty());
}

} // namespace
} // namespace pc
