/**
 * @file
 * Critical-path tests: the pure critPathOf reconstruction (fan-out
 * slowest-shard selection, wasted/re-dispatch segmentation, signatures,
 * dominance tie-breaks), the CritPathCollector's per-interval
 * bottleneck-efficacy scoring with misboost audit records, fan-out hop
 * recording through withdraw re-sharding, wasted segments from a real
 * crash, and dump determinism across sweep thread counts under a clean
 * and a lossy fabric.
 */

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "common/json.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/audit.h"
#include "obs/critpath.h"
#include "obs/telemetry.h"

namespace pc {
namespace {

// ----------------------------------------------------------- helpers

HopRecord
hop(int stage, double enqSec, double startSec, double finSec)
{
    HopRecord h;
    h.instanceId = 100 + stage;
    h.stageIndex = stage;
    h.enqueued = SimTime::sec(enqSec);
    h.started = SimTime::sec(startSec);
    h.finished = SimTime::sec(finSec);
    return h;
}

QueryPtr
emptyQuery(int stages)
{
    return std::make_shared<Query>(
        1, SimTime(),
        std::vector<WorkDemand>(static_cast<std::size_t>(stages)));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// --------------------------------------------------------- critPathOf

TEST(CritPathOf, EmptyQueryYieldsEmptyBreakdown)
{
    const CritPathBreakdown bd = critPathOf(*emptyQuery(2));
    EXPECT_TRUE(bd.segments.empty());
    EXPECT_EQ(bd.dominantStage, -1);
    EXPECT_TRUE(bd.signature.empty());
}

TEST(CritPathOf, PipelineSegmentsIntoQueueAndServe)
{
    auto q = emptyQuery(2);
    q->addHop(hop(0, 0.0, 0.1, 0.5)); // queue 0.1, serve 0.4
    q->addHop(hop(1, 0.5, 0.7, 0.9)); // queue 0.2, serve 0.2
    q->markCompleted(SimTime::sec(0.9));

    const CritPathBreakdown bd = critPathOf(*q);
    ASSERT_EQ(bd.segments.size(), 2u);
    EXPECT_EQ(bd.segments[0].stage, 0);
    EXPECT_NEAR(bd.segments[0].queueSec, 0.1, 1e-9);
    EXPECT_NEAR(bd.segments[0].serveSec, 0.4, 1e-9);
    EXPECT_NEAR(bd.segments[0].wastedSec, 0.0, 1e-9);
    EXPECT_NEAR(bd.segments[0].redispatchSec, 0.0, 1e-9);
    EXPECT_EQ(bd.segments[1].stage, 1);
    EXPECT_NEAR(bd.segments[1].queueSec, 0.2, 1e-9);
    EXPECT_NEAR(bd.segments[1].serveSec, 0.2, 1e-9);
    EXPECT_EQ(bd.signature, "s0>s1");
    EXPECT_EQ(bd.dominantStage, 0); // 0.5 s vs 0.4 s
    EXPECT_NEAR(bd.endToEndSec, 0.9, 1e-9);
}

TEST(CritPathOf, FanOutPicksSlowestShard)
{
    auto q = emptyQuery(2);
    for (int shard = 0; shard < 4; ++shard) {
        // Shard 2 finishes last: 0.0 .. 0.8 s.
        HopRecord h = hop(0, 0.0, 0.0, shard == 2 ? 0.8 : 0.3);
        h.shardIndex = shard;
        h.shardCount = 4;
        h.servedMhz = 1800 + 100 * shard;
        h.boosted = shard == 2;
        q->addHop(h);
    }
    q->addHop(hop(1, 0.8, 0.8, 1.0));
    q->markCompleted(SimTime::sec(1.0));

    const CritPathBreakdown bd = critPathOf(*q);
    ASSERT_EQ(bd.segments.size(), 2u);
    const auto &leaf = bd.segments[0];
    EXPECT_EQ(leaf.stage, 0);
    EXPECT_NEAR(leaf.serveSec, 0.8, 1e-9); // slowest shard only
    EXPECT_EQ(leaf.shardCount, 4);
    EXPECT_EQ(leaf.servedMhz, 2000);
    EXPECT_TRUE(leaf.boosted);
    EXPECT_EQ(bd.signature, "s0x4>s1");
    EXPECT_EQ(bd.dominantStage, 0);
}

TEST(CritPathOf, WastedAndRedispatchCarvedOutOfQueuing)
{
    // Crash at stage 0: 0.5 s of service is wasted, the adopting
    // peer starts 0.4 s after the crash, and only 0.1 s is genuine
    // queuing. The completing hop keeps the original enqueue stamp.
    auto q = emptyQuery(1);
    HopRecord dead = hop(0, 0.0, 0.1, 0.6);
    dead.wasted = true;
    q->addHop(dead);
    q->addHop(hop(0, 0.0, 1.0, 1.5));
    q->markCompleted(SimTime::sec(1.5));

    const CritPathBreakdown bd = critPathOf(*q);
    ASSERT_EQ(bd.segments.size(), 1u);
    const auto &seg = bd.segments[0];
    EXPECT_NEAR(seg.wastedSec, 0.5, 1e-9);
    EXPECT_NEAR(seg.redispatchSec, 0.4, 1e-9);
    EXPECT_NEAR(seg.queueSec, 0.1, 1e-9);
    EXPECT_NEAR(seg.serveSec, 0.5, 1e-9);
    // Segments sum exactly to the hop's queuing + serving span.
    EXPECT_NEAR(seg.totalSec(), 1.5, 1e-9);
    EXPECT_EQ(bd.signature, "s0!");
}

TEST(CritPathOf, WastedOnlyStageContributesNoSegment)
{
    // A crash before any completing hop at stage 0: the path runs
    // through stage 1 alone.
    auto q = emptyQuery(2);
    HopRecord dead = hop(0, 0.0, 0.0, 0.4);
    dead.wasted = true;
    q->addHop(dead);
    q->addHop(hop(1, 0.4, 0.4, 1.0));
    q->markCompleted(SimTime::sec(1.0));

    const CritPathBreakdown bd = critPathOf(*q);
    ASSERT_EQ(bd.segments.size(), 1u);
    EXPECT_EQ(bd.segments[0].stage, 1);
    EXPECT_EQ(bd.signature, "s1");
    EXPECT_EQ(bd.dominantStage, 1);
}

TEST(CritPathOf, DominanceTieBreaksTowardLowestStage)
{
    auto q = emptyQuery(2);
    q->addHop(hop(0, 0.0, 0.0, 1.0));  // total 1.0
    q->addHop(hop(1, 1.0, 1.5, 2.0));  // total 1.0
    q->markCompleted(SimTime::sec(2.0));
    EXPECT_EQ(critPathOf(*q).dominantStage, 0);
}

// ------------------------------------------------- CritPathCollector

QueryPtr
singleStageQuery(std::int64_t id, int stage, double critSec)
{
    auto q = std::make_shared<Query>(
        id, SimTime(),
        std::vector<WorkDemand>(static_cast<std::size_t>(stage + 1)));
    q->addHop(hop(stage, 0.0, 0.0, critSec));
    q->markCompleted(SimTime::sec(critSec));
    return q;
}

TEST(CritPathCollector, ScoresAgreementMisboostAndShortening)
{
    AuditLog audit(true);
    CritPathCollector cp(&audit);

    // Interval 1: stage 1 dominates (2 s), stage 1 boosted -> agree.
    cp.observeQuery(SimTime::sec(10), *singleStageQuery(1, 1, 2.0),
                    true);
    cp.onControlInterval(SimTime::sec(25), {1, 1}); // dup deduped
    // Interval 2: stage 1 dominates (1 s), stage 0 boosted -> misboost.
    cp.observeQuery(SimTime::sec(30), *singleStageQuery(2, 1, 1.0),
                    true);
    cp.onControlInterval(SimTime::sec(50), {0});
    // Interval 3: boost with no completions -> boosted but unscored.
    cp.onControlInterval(SimTime::sec(75), {1});
    // Interval 4: completions, no boost -> scored disagreement.
    cp.observeQuery(SimTime::sec(80), *singleStageQuery(3, 1, 1.0),
                    true);
    cp.onControlInterval(SimTime::sec(100), {});

    EXPECT_EQ(cp.intervals(), 4u);
    EXPECT_EQ(cp.scoredIntervals(), 3u);
    EXPECT_EQ(cp.agreeIntervals(), 1u);
    EXPECT_EQ(cp.boostIntervals(), 3u);
    EXPECT_EQ(cp.misboosts(), 1u);
    EXPECT_NEAR(cp.agreementRate(), 1.0 / 3.0, 1e-12);
    // Interval 1 was boosted at mean 2.0 s; interval 2's mean is
    // 1.0 s: a 50 % realized shortening. Interval 2's pending boost
    // is dropped because interval 3 had no completions.
    EXPECT_NEAR(cp.meanShorteningPct(), 50.0, 1e-9);
    EXPECT_EQ(cp.profiledQueries(), 3u);

    ASSERT_EQ(audit.records().size(), 1u);
    const AuditRecord &rec = audit.records().front();
    EXPECT_EQ(rec.kind, AuditDecisionKind::Misboost);
    EXPECT_EQ(rec.misboostBoostedStage, 0);
    EXPECT_EQ(rec.misboostDominantStage, 1);
    EXPECT_NEAR(rec.misboostDominantShare, 1.0, 1e-12);
    EXPECT_NEAR(rec.misboostBoostedShare, 0.0, 1e-12);
}

TEST(CritPathCollector, WarmupQueriesScoreIntervalsButNotProfile)
{
    CritPathCollector cp;
    cp.observeQuery(SimTime::sec(5), *singleStageQuery(1, 0, 1.0),
                    /*afterWarmup=*/false);
    cp.onControlInterval(SimTime::sec(25), {0});
    EXPECT_EQ(cp.profiledQueries(), 0u);
    EXPECT_EQ(cp.scoredIntervals(), 1u);
    EXPECT_EQ(cp.agreeIntervals(), 1u);
}

TEST(CritPathCollector, JsonCarriesSchemaProfileAndIntervals)
{
    CritPathCollector cp;
    cp.observeQuery(SimTime::sec(10), *singleStageQuery(1, 1, 2.0),
                    true);
    cp.onControlInterval(SimTime::sec(25), {1});

    const JsonValue doc = cp.toJson("unit/critpath");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("schema")->asString(), "powerchief-critpath-v1");
    EXPECT_EQ(doc.find("scenario")->asString(), "unit/critpath");
    EXPECT_DOUBLE_EQ(doc.find("queries")->asNumber(), 1.0);

    const JsonArray &stages = doc.find("stages")->asArray();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_DOUBLE_EQ(stages[0].find("stage")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(stages[0].find("share_mean")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(stages[0].find("dominant")->asNumber(), 1.0);

    const JsonArray &sigs = doc.find("signatures")->asArray();
    ASSERT_EQ(sigs.size(), 1u);
    EXPECT_EQ(sigs[0].find("signature")->asString(), "s1");

    const JsonValue *controller = doc.find("controller");
    ASSERT_NE(controller, nullptr);
    EXPECT_DOUBLE_EQ(controller->find("agree")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(controller->find("agreement_rate")->asNumber(),
                     1.0);

    const JsonArray &intervals = doc.find("intervals")->asArray();
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_TRUE(intervals[0].find("agree")->asBool());
    EXPECT_DOUBLE_EQ(intervals[0].find("interval")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(intervals[0].find("t_s")->asNumber(), 25.0);
}

TEST(CritPathCollector, CollectOnlyKeepsShareMeansWithoutSamples)
{
    CritPathCollector kept;
    CritPathCollector dropped(nullptr, nullptr,
                              /*keepShareSamples=*/false);
    for (int i = 1; i <= 6; ++i) {
        const auto q = singleStageQuery(i, i % 3, 0.5 * i);
        kept.observeQuery(SimTime::sec(i), *q, true);
        dropped.observeQuery(SimTime::sec(i), *q, true);
    }
    EXPECT_EQ(dropped.stageShareMeans(), kept.stageShareMeans());
    EXPECT_EQ(dropped.profiledQueries(), kept.profiledQueries());
}

TEST(CritPathCollectorDeathTest, CollectOnlyProfileRefusesToSerialize)
{
    CritPathCollector dropped(nullptr, nullptr,
                              /*keepShareSamples=*/false);
    // An empty profile has no shares to lose and still serializes.
    EXPECT_TRUE(dropped.toJson("empty").isObject());
    dropped.observeQuery(SimTime::sec(1), *singleStageQuery(1, 0, 1.0),
                         true);
    EXPECT_DEATH((void)dropped.toJson("unit"), "share samples");
}

// ----------------------------------------- fan-out hop recording

class CritPathFanOutTest : public testing::Test
{
  protected:
    CritPathFanOutTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 12),
          bus(&sim)
    {
    }

    std::unique_ptr<MultiStageApp>
    makeSearch(int leaves)
    {
        StageSpec leaf;
        leaf.name = "LEAF";
        leaf.initialInstances = leaves;
        leaf.initialLevel = 0;
        leaf.kind = StageKind::FanOut;
        leaf.referenceShards = leaves;
        StageSpec agg;
        agg.name = "AGG";
        agg.initialInstances = 1;
        agg.initialLevel = 0;
        auto app = std::make_unique<MultiStageApp>(
            &sim, &chip, &bus, "search",
            std::vector<StageSpec>{leaf, agg});
        app->setCompletionSink(
            [this](QueryPtr q) { done.push_back(std::move(q)); });
        return app;
    }

    QueryPtr
    makeQuery(std::int64_t id)
    {
        return std::make_shared<Query>(
            id, sim.now(),
            std::vector<WorkDemand>{{0.0, 0.4}, {0.0, 0.1}});
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    std::vector<QueryPtr> done;
};

TEST_F(CritPathFanOutTest, HopsCarryShardLinkageAndFrequency)
{
    auto app = makeSearch(3);
    app->submit(makeQuery(1));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    const auto &hops = done[0]->hops();
    ASSERT_EQ(hops.size(), 4u); // 3 shards + agg

    std::set<int> shardIndexes;
    for (const HopRecord &h : hops) {
        EXPECT_GT(h.servedMhz, 0);
        EXPECT_FALSE(h.wasted);
        if (h.stageIndex == 0) {
            EXPECT_EQ(h.shardCount, 3);
            shardIndexes.insert(h.shardIndex);
        } else {
            EXPECT_EQ(h.shardIndex, -1);
            EXPECT_EQ(h.shardCount, 0);
        }
    }
    EXPECT_EQ(shardIndexes, (std::set<int>{0, 1, 2}));

    const CritPathBreakdown bd = critPathOf(*done[0]);
    ASSERT_EQ(bd.segments.size(), 2u);
    EXPECT_EQ(bd.segments[0].shardCount, 3);
    EXPECT_EQ(bd.signature, "s0x3>s1");
}

TEST_F(CritPathFanOutTest, WithdrawReShardsSubsequentQueries)
{
    auto app = makeSearch(3);
    auto leaves = app->stage(0).instances();
    ASSERT_TRUE(app->stage(0).withdrawInstance(leaves[2]->id()));
    sim.run(); // reap

    app->submit(makeQuery(1));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    const auto &hops = done[0]->hops();
    ASSERT_EQ(hops.size(), 3u); // 2 shards + agg
    std::set<int> shardIndexes;
    for (const HopRecord &h : hops)
        if (h.stageIndex == 0) {
            EXPECT_EQ(h.shardCount, 2);
            shardIndexes.insert(h.shardIndex);
        }
    EXPECT_EQ(shardIndexes, (std::set<int>{0, 1}));
    EXPECT_EQ(critPathOf(*done[0]).signature, "s0x2>s1");
}

// ------------------------------------- crash wasted segments (e2e)

TEST(CritPathCrash, CrashProducesWastedSegmentsInDump)
{
    // Seed 4 is pinned because its crash catches the victim mid-
    // service, so the dump shows all three signals: wasted service,
    // a re-dispatch wait, and a '!' path signature.
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, 4);
    sc.duration = SimTime::sec(240);
    sc.name = "critpath/crash";
    sc.faults.active = true;
    sc.faults.seed = 9;
    CrashEvent crash;
    crash.stage = 1;
    crash.at = SimTime::sec(120);
    crash.recovery = SimTime::sec(20);
    sc.faults.crashes.push_back(crash);

    const std::string dir = testing::TempDir();
    TelemetryConfig config;
    config.critpathOut = dir + "crash.critpath.json";
    const ExperimentRunner runner;
    runner.run(sc, &config);

    const JsonParseResult doc =
        parseJson(readFile(config.critpathOut));
    ASSERT_TRUE(doc.ok()) << doc.error;
    EXPECT_EQ(doc.value->find("schema")->asString(),
              "powerchief-critpath-v1");

    double wasted = 0.0;
    double redispatch = 0.0;
    for (const JsonValue &stage : doc.value->find("stages")->asArray()) {
        wasted += stage.find("wasted_s")->asNumber();
        redispatch += stage.find("redispatch_s")->asNumber();
    }
    EXPECT_GT(wasted, 0.0);
    EXPECT_GT(redispatch, 0.0);
    bool sawWastedSignature = false;
    for (const JsonValue &sig :
         doc.value->find("signatures")->asArray())
        if (sig.find("signature")->asString().find('!') !=
            std::string::npos)
            sawWastedSignature = true;
    EXPECT_TRUE(sawWastedSignature);

    // The same scenario dumps byte-identically on a re-run.
    TelemetryConfig again = config;
    again.critpathOut = dir + "crash.critpath.rerun.json";
    runner.run(sc, &again);
    EXPECT_EQ(readFile(config.critpathOut),
              readFile(again.critpathOut));
}

// ------------------------------------------- sweep determinism

std::string
dumped(const RunResult &r)
{
    return runResultToJson(r).dump();
}

Scenario
cleanScenario(int seed)
{
    Scenario sc =
        Scenario::mitigation(WorkloadModel::nlp(), LoadLevel::Medium,
                             PolicyKind::PowerChief, seed);
    sc.duration = SimTime::sec(90);
    sc.name = "critpath-clean/" + std::to_string(seed);
    return sc;
}

Scenario
lossyScenario(int seed)
{
    Scenario sc = cleanScenario(seed);
    sc.name = "critpath-lossy/" + std::to_string(seed);
    sc.faults.active = true;
    sc.faults.seed = 18;
    BusFaultRule rule;
    rule.dropRate = 0.03;
    rule.reorderRate = 0.1;
    rule.reorderJitterMax = SimTime::msec(5);
    sc.faults.bus.push_back(rule);
    CrashEvent crash;
    crash.stage = 1;
    crash.at = SimTime::sec(60);
    crash.recovery = SimTime::sec(10);
    sc.faults.crashes.push_back(crash);
    sc.faults.telemetry.staleRate = 0.1;
    sc.faults.telemetry.truncateRate = 0.05;
    sc.faults.telemetry.perfCtlFailRate = 0.2;
    return sc;
}

TEST(CritPathSweep, SummariesIdenticalAcrossJobsCleanAndLossy)
{
    std::vector<Scenario> scenarios;
    for (int seed = 1; seed <= 2; ++seed) {
        scenarios.push_back(cleanScenario(seed));
        scenarios.push_back(lossyScenario(seed));
    }

    std::vector<std::vector<std::string>> perJobs;
    for (int jobs : {1, 3}) {
        SweepOptions opt;
        opt.jobs = jobs;
        opt.collectCritPath = true;
        SweepRunner sweep(opt);
        std::vector<std::string> dumps;
        for (const RunResult &r : sweep.runAll(scenarios)) {
            EXPECT_TRUE(r.critpath.collected);
            EXPECT_GT(r.critpath.scoredIntervals, 0u);
            dumps.push_back(dumped(r));
            EXPECT_NE(dumps.back().find("\"critpath\":"),
                      std::string::npos);
        }
        perJobs.push_back(std::move(dumps));
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("scenario " + scenarios[i].name);
        EXPECT_EQ(perJobs[0][i], perJobs[1][i]);
    }
}

// ------------------------------------- bottleneck-efficacy ordering

TEST(CritPathEfficacy, PowerChiefAgreesMoreThanConserveOnGoldenFig11)
{
    const ExperimentRunner runner(false, SimTime::sec(5), false, false,
                                  SloConfig{}, /*collectCritPath=*/true);
    const RunResult chief =
        runner.run(Scenario::goldenFig11For(PolicyKind::PowerChief));
    const RunResult conserve = runner.run(
        Scenario::goldenFig11For(PolicyKind::PowerChiefConserve));
    ASSERT_TRUE(chief.critpath.collected);
    ASSERT_TRUE(conserve.critpath.collected);
    EXPECT_GT(chief.critpath.scoredIntervals, 0u);
    // PowerChief boosts the Eq. 1 bottleneck nearly every interval;
    // the conserving variant mostly idles, so its boosts track the
    // dominant critical-path stage far less often.
    EXPECT_GT(chief.critpath.agreementRate,
              conserve.critpath.agreementRate);
}

} // namespace
} // namespace pc
