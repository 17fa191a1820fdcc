/**
 * @file
 * Tests for the decision-audit log and the tail-attribution collector:
 * record stamping, flip detection, actuation marking, prediction
 * scoring, deterministic dumps, tail-cut math, the JSON codec, and the
 * pure-observer guarantee end to end.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "obs/audit.h"
#include "obs/telemetry.h"
#include "stats/attribution.h"

namespace pc {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

JsonValue
parsed(const std::string &text)
{
    const JsonParseResult result = parseJson(text);
    EXPECT_TRUE(result.ok()) << result.error;
    return result.ok() ? *result.value : JsonValue();
}

AuditRecord
selectOf(int stage, AuditBoostKind chosen, double tInst, double tFreq)
{
    AuditRecord rec;
    rec.kind = AuditDecisionKind::Select;
    rec.chosen = chosen;
    rec.stageIndex = stage;
    rec.targetInstance = 100 + stage;
    rec.tInstSec = tInst;
    rec.tFreqSec = tFreq;
    AuditCandidate cand;
    cand.instanceId = 100 + stage;
    cand.stageIndex = stage;
    cand.queueLength = 4;
    cand.avgQueuingSec = 0.3;
    cand.avgServingSec = 0.1;
    cand.metric = 1.3;
    rec.candidates.push_back(cand);
    return rec;
}

// ----------------------------------------------------------- AuditLog

TEST(AuditLog, DisabledLogIgnoresEverything)
{
    AuditLog log(false);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1.0, 2.0));
    log.recordRecycle(1.0, 0.5, 3);
    log.recordWithdraw(7, 0, 0.1, 0.2);
    log.noteActuation(AuditBoostKind::Frequency);
    log.scorePending(SimTime::sec(50), {1.0});
    EXPECT_FALSE(log.enabled());
    EXPECT_TRUE(log.records().empty());
    EXPECT_EQ(log.flips(), 0u);
}

TEST(AuditLog, RecordsCarryIntervalStampsAndContiguousSeq)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1.0, 2.0));
    log.recordRecycle(2.0, 1.5, 4);
    log.beginInterval(SimTime::sec(50), 2);
    log.recordWithdraw(9, 1, 0.05, 0.2);

    ASSERT_EQ(log.records().size(), 3u);
    EXPECT_EQ(log.records()[0].seq, 0u);
    EXPECT_EQ(log.records()[1].seq, 1u);
    EXPECT_EQ(log.records()[2].seq, 2u);
    EXPECT_EQ(log.records()[0].interval, 1u);
    EXPECT_EQ(log.records()[1].interval, 1u);
    EXPECT_EQ(log.records()[2].interval, 2u);
    EXPECT_EQ(log.records()[2].t, SimTime::sec(50));
    // Raw instance ids are remapped densely in first-reference order:
    // the select's instance 100 became 1, the withdrawn 9 becomes 2.
    EXPECT_EQ(log.records()[2].targetInstance, 2);
    EXPECT_EQ(log.records()[0].targetInstance, 1);
    EXPECT_EQ(log.records()[0].candidates[0].instanceId, 1);
    EXPECT_DOUBLE_EQ(log.records()[1].neededWatts, 2.0);
    EXPECT_DOUBLE_EQ(log.records()[1].recycledWatts, 1.5);
    EXPECT_EQ(log.records()[1].donorSteps, 4u);
}

TEST(AuditLog, FlipCountsKindChangesPerStage)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1, 2));
    EXPECT_EQ(log.flips(), 0u); // first choice is not a flip

    log.beginInterval(SimTime::sec(50), 2);
    log.recordSelect(selectOf(0, AuditBoostKind::Instance, 1, 2));
    EXPECT_EQ(log.flips(), 1u);

    // A None decision neither flips nor resets the stage's history.
    log.beginInterval(SimTime::sec(75), 3);
    log.recordSelect(selectOf(0, AuditBoostKind::None, 1, 2));
    EXPECT_EQ(log.flips(), 1u);

    log.beginInterval(SimTime::sec(100), 4);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1, 2));
    EXPECT_EQ(log.flips(), 2u);

    // A different stage keeps its own history.
    log.recordSelect(selectOf(1, AuditBoostKind::Instance, 1, 2));
    EXPECT_EQ(log.flips(), 2u);
}

TEST(AuditLog, ActuationMarksMostRecentUnactuatedMatch)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1, 2));
    log.recordSelect(selectOf(1, AuditBoostKind::Frequency, 1, 2));

    log.noteActuation(AuditBoostKind::Frequency);
    EXPECT_FALSE(log.records()[0].actuated);
    EXPECT_TRUE(log.records()[1].actuated);
    log.noteActuation(AuditBoostKind::Frequency);
    EXPECT_TRUE(log.records()[0].actuated);
    // Nothing left to mark: a stray actuation is a no-op.
    log.noteActuation(AuditBoostKind::Instance);
}

TEST(AuditLog, ScoringComputesMapeAgainstRealizedDelay)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Instance, 2.0, 3.0));
    log.recordSelect(selectOf(1, AuditBoostKind::Frequency, 2.0, 1.0));

    // Scoring happens at the *next* interval against realized delays.
    log.beginInterval(SimTime::sec(50), 2);
    log.scorePending(SimTime::sec(50), {1.6, 2.0});

    const AuditRecord &inst = log.records()[0];
    ASSERT_TRUE(inst.scored);
    EXPECT_DOUBLE_EQ(inst.predictedSec, 2.0); // Eq. 2 for Instance
    EXPECT_DOUBLE_EQ(inst.realizedSec, 1.6);
    EXPECT_DOUBLE_EQ(inst.absPctErr, 25.0);

    const AuditRecord &freq = log.records()[1];
    ASSERT_TRUE(freq.scored);
    EXPECT_DOUBLE_EQ(freq.predictedSec, 1.0); // Eq. 3 for Frequency
    EXPECT_DOUBLE_EQ(freq.absPctErr, 50.0);

    EXPECT_DOUBLE_EQ(log.mapePct(AuditBoostKind::Instance), 25.0);
    EXPECT_DOUBLE_EQ(log.mapePct(AuditBoostKind::Frequency), 50.0);
    EXPECT_DOUBLE_EQ(log.mapePct(), 37.5);
}

TEST(AuditLog, ScoringRetriesUntilDelayMaterializes)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Instance, 2.0, 3.0));

    // No realized delay yet: the prediction stays pending.
    log.scorePending(SimTime::sec(50), {0.0});
    EXPECT_FALSE(log.records()[0].scored);
    EXPECT_DOUBLE_EQ(log.mapePct(), 0.0);

    log.scorePending(SimTime::sec(75), {2.0});
    ASSERT_TRUE(log.records()[0].scored);
    EXPECT_EQ(log.records()[0].scoredAt, SimTime::sec(75));
    EXPECT_DOUBLE_EQ(log.mapePct(), 0.0); // perfect prediction
}

TEST(AuditLog, JsonSummaryMatchesRecords)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordSelect(selectOf(0, AuditBoostKind::Frequency, 1.0, 2.0));
    log.recordRecycle(2.0, 2.0, 5);
    log.noteActuation(AuditBoostKind::Frequency);
    log.beginInterval(SimTime::sec(50), 2);
    log.recordSelect(selectOf(0, AuditBoostKind::Instance, 4.0, 5.0));
    log.recordWithdraw(3, 1, 0.1, 0.2);
    log.scorePending(SimTime::sec(50), {2.5});

    const JsonValue root = parsed(log.toJson().dump());
    const JsonValue *records = root.find("records");
    ASSERT_NE(records, nullptr);
    EXPECT_EQ(records->asArray().size(), 4u);

    const JsonValue *summary = root.find("summary");
    ASSERT_NE(summary, nullptr);
    const JsonValue *decisions = summary->find("decisions");
    ASSERT_NE(decisions, nullptr);
    EXPECT_DOUBLE_EQ(decisions->numberOr("select", -1), 2.0);
    EXPECT_DOUBLE_EQ(decisions->numberOr("recycle", -1), 1.0);
    EXPECT_DOUBLE_EQ(decisions->numberOr("withdraw", -1), 1.0);

    const JsonValue *select = summary->find("select");
    ASSERT_NE(select, nullptr);
    EXPECT_DOUBLE_EQ(select->numberOr("actuated", -1), 1.0);
    EXPECT_DOUBLE_EQ(select->numberOr("flips", -1), 1.0);
    EXPECT_DOUBLE_EQ(select->numberOr("frequency", -1), 1.0);
    EXPECT_DOUBLE_EQ(select->numberOr("instance", -1), 1.0);

    const JsonValue *overall =
        summary->find("prediction")->find("overall");
    ASSERT_NE(overall, nullptr);
    EXPECT_DOUBLE_EQ(overall->numberOr("scored", -1), 1.0);

    // The scored record carries the score sub-object.
    const JsonValue &first = records->asArray()[0];
    const JsonValue *score = first.find("score");
    ASSERT_NE(score, nullptr);
    EXPECT_DOUBLE_EQ(score->numberOr("predicted_s", -1), 2.0);
    EXPECT_DOUBLE_EQ(score->numberOr("realized_s", -1), 2.5);
}

TEST(AuditLog, StaleSkipRecordRoundTrips)
{
    AuditLog log(true);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordStaleSkip(9, 1, 75.0, 60.0);

    ASSERT_EQ(log.records().size(), 1u);
    const AuditRecord &stale = log.records()[0];
    EXPECT_EQ(stale.kind, AuditDecisionKind::StaleSkip);
    EXPECT_EQ(stale.targetInstance, 1); // densely remapped id
    EXPECT_EQ(stale.stageIndex, 1);
    EXPECT_DOUBLE_EQ(stale.ageSec, 75.0);
    EXPECT_DOUBLE_EQ(stale.staleWindowSec, 60.0);

    const JsonValue root = parsed(log.toJson().dump());
    const JsonValue *records = root.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->asArray().size(), 1u);

    const JsonValue &staleJson = records->asArray()[0];
    EXPECT_EQ(staleJson.stringOr("kind", ""), "stale_skip");
    EXPECT_DOUBLE_EQ(staleJson.numberOr("target", -1), 1.0);
    EXPECT_DOUBLE_EQ(staleJson.numberOr("stage", -1), 1.0);
    EXPECT_DOUBLE_EQ(staleJson.numberOr("age_s", -1), 75.0);
    EXPECT_DOUBLE_EQ(staleJson.numberOr("stale_window_s", -1), 60.0);

    const JsonValue *decisions =
        root.find("summary")->find("decisions");
    ASSERT_NE(decisions, nullptr);
    EXPECT_EQ(decisions->find("rpc_retry"), nullptr);
    EXPECT_DOUBLE_EQ(decisions->numberOr("stale_skip", -1), 1.0);
    EXPECT_DOUBLE_EQ(decisions->numberOr("select", -1), 0.0);
}

TEST(AuditLog, DisabledLogIgnoresRobustnessRecords)
{
    AuditLog log(false);
    log.beginInterval(SimTime::sec(25), 1);
    log.recordStaleSkip(3, 0, 10.0, 5.0);
    EXPECT_TRUE(log.records().empty());
}

TEST(AuditLog, IdenticalOperationsProduceIdenticalDumps)
{
    auto populate = [](AuditLog &log) {
        log.beginInterval(SimTime::sec(25), 1);
        log.recordSelect(selectOf(0, AuditBoostKind::Instance, 2, 3));
        log.recordRecycle(1.0, 0.5, 2);
        log.beginInterval(SimTime::sec(50), 2);
        log.scorePending(SimTime::sec(50), {1.7});
        log.recordWithdraw(5, 0, 0.15, 0.2);
    };
    AuditLog first(true), second(true);
    populate(first);
    populate(second);

    std::ostringstream a, b;
    first.writeJson(a);
    second.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.str().back(), '\n');
}

// ------------------------------------------------ TailAttribution math

TEST(TailAttribution, EmptyCollectorReportsNoCuts)
{
    TailAttributionCollector collector(2);
    const TailAttributionReport report = collector.report();
    EXPECT_TRUE(report.enabled);
    EXPECT_EQ(report.queries, 0u);
    EXPECT_TRUE(report.cuts.empty());
}

TEST(TailAttribution, TailCutMeansMatchHandComputation)
{
    TailAttributionCollector collector(2);
    for (int i = 1; i <= 100; ++i) {
        const double e2e = static_cast<double>(i);
        collector.addQuery(e2e, {{0.6 * e2e, 0.4 * e2e}, {0.0, 0.0}});
    }
    const TailAttributionReport report = collector.report();
    EXPECT_EQ(report.queries, 100u);
    ASSERT_EQ(report.cuts.size(), 2u);

    const TailCut &p95 = report.cuts[0];
    EXPECT_DOUBLE_EQ(p95.q, 0.95);
    EXPECT_EQ(p95.tailCount, 5u); // ceil(0.05 * 100)
    EXPECT_DOUBLE_EQ(p95.thresholdSec, 96.0);
    EXPECT_DOUBLE_EQ(p95.meanTailSec, 98.0);
    ASSERT_EQ(p95.stages.size(), 2u);
    EXPECT_DOUBLE_EQ(p95.stages[0].queuingSec, 0.6 * 98.0);
    EXPECT_DOUBLE_EQ(p95.stages[0].servingSec, 0.4 * 98.0);
    EXPECT_DOUBLE_EQ(p95.stages[1].queuingSec, 0.0);
    EXPECT_FALSE(p95.truncated);

    const TailCut &p99 = report.cuts[1];
    EXPECT_EQ(p99.tailCount, 1u);
    EXPECT_DOUBLE_EQ(p99.thresholdSec, 100.0);
    EXPECT_DOUBLE_EQ(p99.meanTailSec, 100.0);
}

TEST(TailAttribution, BoundedRetentionFlagsTruncation)
{
    TailAttributionCollector collector(1, /*capacity=*/2);
    for (int i = 1; i <= 1000; ++i)
        collector.addQuery(static_cast<double>(i),
                           {{0.0, static_cast<double>(i)}});
    const TailAttributionReport report = collector.report();
    ASSERT_EQ(report.cuts.size(), 2u);
    // p95 wants 50 retained queries but only 2 survive the cap.
    EXPECT_TRUE(report.cuts[0].truncated);
    EXPECT_EQ(report.cuts[0].tailCount, 2u);
    EXPECT_DOUBLE_EQ(report.cuts[0].meanTailSec, 999.5);
}

TEST(TailAttributionDeath, SpanCountMustMatchStages)
{
    TailAttributionCollector collector(2);
    EXPECT_DEATH(collector.addQuery(1.0, {{0.5, 0.5}}), "stage");
}

// ------------------------------------------------- end-to-end + codec

Scenario
smallScenario(const std::string &name, std::uint64_t seed)
{
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief, seed);
    sc.duration = SimTime::sec(120);
    sc.name = name;
    return sc;
}

TEST(AuditEndToEnd, AuditedRunIsPureObserverWithScoredRecords)
{
    const std::string dir = testing::TempDir();
    const Scenario sc = smallScenario("audit/e2e", 11);

    const ExperimentRunner runner;
    const RunResult bare = runner.run(sc);

    TelemetryConfig cfg;
    cfg.auditOut = dir + "audit_e2e.json";
    const RunResult observed = runner.run(sc, &cfg);

    // Auditing must not perturb the simulation at all.
    EXPECT_EQ(runResultToJson(bare).dump(),
              runResultToJson(observed).dump());

    const JsonValue root = parsed(slurp(cfg.auditOut));
    const JsonValue *records = root.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_FALSE(records->asArray().empty());

    std::size_t selects = 0, scored = 0;
    for (const JsonValue &rec : records->asArray()) {
        if (rec.stringOr("kind", "") != "select")
            continue;
        ++selects;
        // Every select explains itself with the Eq. 2/3 inputs.
        ASSERT_NE(rec.find("t_inst_s"), nullptr);
        ASSERT_NE(rec.find("t_freq_s"), nullptr);
        ASSERT_NE(rec.find("alpha_lh"), nullptr);
        ASSERT_NE(rec.find("candidates"), nullptr);
        EXPECT_FALSE(rec.find("candidates")->asArray().empty());
        if (rec.find("score") != nullptr) {
            ++scored;
            EXPECT_GT(rec.find("score")->numberOr("realized_s", 0.0),
                      0.0);
        }
    }
    EXPECT_GT(selects, 0u);
    EXPECT_GT(scored, 0u);
}

TEST(AuditEndToEnd, AttributionCollectsAndSerializes)
{
    const Scenario sc = smallScenario("audit/attr", 13);

    const RunResult bare = ExperimentRunner().run(sc);
    const RunResult attributed =
        ExperimentRunner(false, SimTime::sec(5), true).run(sc);

    // The collector observes completions without changing them.
    EXPECT_DOUBLE_EQ(attributed.avgLatencySec, bare.avgLatencySec);
    EXPECT_DOUBLE_EQ(attributed.p99LatencySec, bare.p99LatencySec);

    const TailAttributionReport &report = attributed.tailAttribution;
    ASSERT_TRUE(report.enabled);
    // The collector sees the same population as the latency
    // percentiles: completions whose arrival is past the warmup.
    EXPECT_GT(report.queries, 0u);
    EXPECT_LT(report.queries, attributed.completed);
    ASSERT_EQ(report.cuts.size(), 2u);
    for (const TailCut &cut : report.cuts) {
        // Stage queue+serve spans tile the end-to-end latency, so the
        // per-stage means of the tail sum back to the tail mean.
        double sum = 0.0;
        for (const StageSpan &stage : cut.stages)
            sum += stage.queuingSec + stage.servingSec;
        EXPECT_NEAR(sum, cut.meanTailSec, 1e-9 * cut.meanTailSec);
        EXPECT_GE(cut.meanTailSec, cut.thresholdSec);
    }

    // The report rides in the run's JSON form, one entry per cut.
    const JsonValue doc = parsed(runResultToJson(attributed).dump());
    const JsonValue *dumped = doc.find("tail_attribution");
    ASSERT_NE(dumped, nullptr);
    const JsonValue *cuts = dumped->find("cuts");
    ASSERT_NE(cuts, nullptr);
    EXPECT_EQ(cuts->asArray().size(), report.cuts.size());
}

} // namespace
} // namespace pc
