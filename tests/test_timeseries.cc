/**
 * @file
 * Timeseries engine, SLO burn-rate tracker and anomaly alerts: ring
 * semantics and delta encoding, OpenMetrics exposition, SLO edge cases
 * (zero traffic, violation exactly at the target), EWMA detector
 * behavior, flags hardening (duplicate registration with mismatched
 * units), flush-on-fatal, and byte-identical dumps across sweep thread
 * counts on both a clean and a seeded lossy fabric.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "exp/sweep.h"
#include "obs/alerts.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"

namespace pc {
namespace {

// ------------------------------------------------------------ TsSeries

TEST(TsSeries, AppendsAndDeltaEncodes)
{
    TsSeries s("x", "watts", MetricsRegistry::SampleKind::Gauge, 8);
    for (int i = 1; i <= 4; ++i)
        s.append(SimTime::sec(i), 10.0 * i);

    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.dropped(), 0u);
    EXPECT_EQ(s.timeAt(0), SimTime::sec(1));
    EXPECT_DOUBLE_EQ(s.valueAt(3), 40.0);
    EXPECT_DOUBLE_EQ(s.last(), 40.0);

    const JsonValue doc = s.toJson();
    EXPECT_EQ(doc.find("kind")->asString(), "gauge");
    EXPECT_EQ(doc.find("unit")->asString(), "watts");
    EXPECT_DOUBLE_EQ(doc.find("n")->asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(doc.find("t0_us")->asNumber(), 1e6);
    const JsonArray &dt = doc.find("dt_us")->asArray();
    ASSERT_EQ(dt.size(), 3u);
    for (const JsonValue &d : dt)
        EXPECT_DOUBLE_EQ(d.asNumber(), 1e6);
    EXPECT_EQ(doc.find("v")->asArray().size(), 4u);
}

TEST(TsSeries, FullRingOverwritesOldestAndCountsDrops)
{
    TsSeries s("x", "", MetricsRegistry::SampleKind::Counter, 3);
    for (int i = 1; i <= 5; ++i)
        s.append(SimTime::sec(i), i);

    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.dropped(), 2u);
    // Oldest retained point is the 3rd appended one.
    EXPECT_EQ(s.timeAt(0), SimTime::sec(3));
    EXPECT_DOUBLE_EQ(s.valueAt(0), 3.0);
    EXPECT_DOUBLE_EQ(s.last(), 5.0);

    const JsonValue doc = s.toJson();
    EXPECT_DOUBLE_EQ(doc.find("dropped")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(doc.find("t0_us")->asNumber(), 3e6);
}

TEST(TsSeriesDeath, ZeroCapacityIsFatal)
{
    EXPECT_EXIT(
        TsSeries("bad", "", MetricsRegistry::SampleKind::Gauge, 0),
        testing::ExitedWithCode(1), "bad");
}

// ------------------------------------------------- TimeseriesRecorder

TEST(TimeseriesRecorder, SamplesScalarsAndHistogramProjections)
{
    MetricsRegistry metrics;
    Counter &c = metrics.counter("app.completed_total");
    Gauge &g = metrics.gauge("power.headroom_watts", "watts");
    Histogram &h = metrics.histogram("latency.e2e", "seconds");

    TimeseriesRecorder rec(16);
    c.add(1.0);
    g.set(2.5);
    h.add(0.5);
    rec.sample(SimTime::sec(1), metrics);
    c.add(2.0);
    h.add(1.5);
    rec.sample(SimTime::sec(2), metrics);

    EXPECT_EQ(rec.samples(), 2u);
    const TsSeries *counter = rec.find("app.completed_total");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->kind(), MetricsRegistry::SampleKind::Counter);
    EXPECT_DOUBLE_EQ(counter->valueAt(0), 1.0);
    EXPECT_DOUBLE_EQ(counter->valueAt(1), 3.0);

    const TsSeries *gauge = rec.find("power.headroom_watts");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->unit(), "watts");

    // Histograms are sampled through count/mean projections.
    const TsSeries *count = rec.find("latency.e2e.count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->kind(), MetricsRegistry::SampleKind::Counter);
    EXPECT_DOUBLE_EQ(count->valueAt(1), 2.0);
    const TsSeries *mean = rec.find("latency.e2e.mean");
    ASSERT_NE(mean, nullptr);
    EXPECT_EQ(mean->kind(), MetricsRegistry::SampleKind::Gauge);
    EXPECT_EQ(mean->unit(), "seconds");
    EXPECT_DOUBLE_EQ(mean->valueAt(1), 1.0);
}

TEST(TimeseriesRecorder, VolatileMetricsAreNeverSampled)
{
    MetricsRegistry metrics;
    metrics.counter("wall.self_time", Volatility::Volatile).add(1.0);
    metrics.counter("stable_total").add(1.0);

    TimeseriesRecorder rec(4);
    rec.sample(SimTime::sec(1), metrics);
    EXPECT_EQ(rec.find("wall.self_time"), nullptr);
    EXPECT_NE(rec.find("stable_total"), nullptr);
}

TEST(TimeseriesRecorder, OpenMetricsExpositionIsWellFormed)
{
    MetricsRegistry metrics;
    metrics.counter("decision.freq-boost_total").add(2.0);
    metrics.gauge("power.headroom_watts", "watts").set(1.5);

    TimeseriesRecorder rec(8);
    rec.sample(SimTime::sec(1), metrics);
    rec.sample(SimTime::sec(2), metrics);

    std::ostringstream out;
    rec.writeOpenMetrics(out, "fig11");
    const std::string text = out.str();
    EXPECT_NE(text.find("# TYPE decision_freq_boost_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE power_headroom_watts gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# UNIT power_headroom_watts watts\n"),
              std::string::npos);
    EXPECT_NE(text.find("{scenario=\"fig11\"}"), std::string::npos);
    // Terminated by exactly one trailing "# EOF\n".
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsName, SanitizesToValidCharset)
{
    EXPECT_EQ(openMetricsName("decision.freq-boost_total"),
              "decision_freq_boost_total");
    EXPECT_EQ(openMetricsName("health.stage0.p95_s"),
              "health_stage0_p95_s");
    EXPECT_EQ(openMetricsName("9lives"), "_9lives");
    EXPECT_EQ(openMetricsName(""), "_");
}

// ------------------------------------------------------------ SLO

SloConfig
sloConfig(double fastWindow = 60.0, double slowWindow = 300.0,
          double objective = 0.9)
{
    SloConfig config;
    config.enabled = true;
    config.objective = objective;
    config.fastWindowSec = fastWindow;
    config.slowWindowSec = slowWindow;
    return config;
}

TEST(SloTracker, ZeroTrafficReportsZeros)
{
    SloTracker tracker(sloConfig(), 1.0);
    tracker.finish(SimTime::sec(300));
    const SloReport report = tracker.report();
    EXPECT_TRUE(report.collected);
    EXPECT_EQ(report.total, 0u);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_DOUBLE_EQ(report.violationSeconds, 0.0);
    EXPECT_DOUBLE_EQ(report.fastBurn, 0.0);
    EXPECT_DOUBLE_EQ(report.slowBurn, 0.0);
    EXPECT_DOUBLE_EQ(report.maxFastBurn, 0.0);
    EXPECT_DOUBLE_EQ(report.violationRate(), 0.0);
}

TEST(SloTracker, LatencyExactlyAtTargetIsGood)
{
    SloTracker tracker(sloConfig(), 1.0);
    tracker.observe(SimTime::sec(10), 1.0); // == target: good
    tracker.finish(SimTime::sec(20));
    const SloReport report = tracker.report();
    EXPECT_EQ(report.total, 1u);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_DOUBLE_EQ(report.fastBurn, 0.0);
    EXPECT_DOUBLE_EQ(report.violationSeconds, 0.0);
}

TEST(SloTracker, BurnRateIsBadFractionOverErrorBudget)
{
    // objective 0.9: a 10% bad fraction burns at exactly 1.0.
    SloTracker tracker(sloConfig(60.0, 300.0, 0.9), 1.0);
    for (int i = 1; i <= 9; ++i)
        tracker.observe(SimTime::sec(i), 0.5);
    tracker.observe(SimTime::sec(10), 2.0);
    EXPECT_DOUBLE_EQ(tracker.fastBurn(), 1.0);
    EXPECT_DOUBLE_EQ(tracker.slowBurn(), 1.0);

    const SloReport report = tracker.report();
    EXPECT_EQ(report.total, 10u);
    EXPECT_EQ(report.violations, 1u);
    EXPECT_DOUBLE_EQ(report.maxFastBurn, 1.0);
}

TEST(SloTracker, ViolationSecondsIntegrateUserPain)
{
    SloTracker tracker(sloConfig(), 1.0);
    tracker.observe(SimTime::sec(10), 2.0); // violating from t=10
    tracker.observe(SimTime::sec(25), 0.5); // recovered at t=25
    tracker.observe(SimTime::sec(40), 3.0); // violating from t=40
    tracker.finish(SimTime::sec(50));       // ... through the run end
    const SloReport report = tracker.report();
    EXPECT_DOUBLE_EQ(report.violationSeconds, 25.0);
    EXPECT_EQ(report.violations, 2u);
}

TEST(SloTracker, FastWindowEvictsOldEvents)
{
    SloTracker tracker(sloConfig(60.0, 300.0, 0.9), 1.0);
    tracker.observe(SimTime::sec(10), 5.0); // bad, but ancient
    for (int i = 0; i < 10; ++i)
        tracker.observe(SimTime::sec(100 + i), 0.5);
    // The bad event left the 60 s window; it still counts in the 300 s
    // one.
    EXPECT_DOUBLE_EQ(tracker.fastBurn(), 0.0);
    EXPECT_GT(tracker.slowBurn(), 0.0);
}

TEST(SloReportJson, SerializesEveryField)
{
    SloReport report;
    report.collected = true;
    report.targetSec = 0.75;
    report.objective = 0.95;
    report.total = 123;
    report.violations = 7;
    report.violationSeconds = 4.5;
    report.fastBurn = 0.25;
    report.slowBurn = 0.5;
    report.maxFastBurn = 2.0;
    report.maxSlowBurn = 1.0;

    const JsonValue doc = sloReportToJson(report);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.asObject().size(), 9u);
    EXPECT_DOUBLE_EQ(doc.numberOr("target_s", -1), report.targetSec);
    EXPECT_DOUBLE_EQ(doc.numberOr("objective", -1), report.objective);
    EXPECT_DOUBLE_EQ(doc.numberOr("total", -1), 123.0);
    EXPECT_DOUBLE_EQ(doc.numberOr("violations", -1), 7.0);
    EXPECT_DOUBLE_EQ(doc.numberOr("violation_s", -1),
                     report.violationSeconds);
    EXPECT_DOUBLE_EQ(doc.numberOr("fast_burn", -1), report.fastBurn);
    EXPECT_DOUBLE_EQ(doc.numberOr("slow_burn", -1), report.slowBurn);
    EXPECT_DOUBLE_EQ(doc.numberOr("max_fast_burn", -1),
                     report.maxFastBurn);
    EXPECT_DOUBLE_EQ(doc.numberOr("max_slow_burn", -1),
                     report.maxSlowBurn);
}

TEST(SloRunner, RunnerCollectsReportWithAutoTarget)
{
    Scenario sc =
        Scenario::mitigation(WorkloadModel::nlp(), LoadLevel::Medium,
                             PolicyKind::PowerChief, 7);
    sc.duration = SimTime::sec(120);
    SloConfig config;
    config.enabled = true; // targetSec 0 = auto
    const ExperimentRunner runner(false, SimTime::sec(5), false, false,
                                  config);
    const RunResult result = runner.run(sc);
    EXPECT_TRUE(result.slo.collected);
    EXPECT_GT(result.slo.targetSec, 0.0);
    EXPECT_GT(result.slo.total, 0u);
    EXPECT_LE(result.slo.violations, result.slo.total);
}

// ------------------------------------------------------------ alerts

TEST(AlertEngine, WarmupAndSigmaFloorSuppressFiring)
{
    AlertConfig config;
    AlertEngine engine(config);
    // Constant series: zero variance stays under the sigma floor, so
    // even an absurd spike after warmup cannot produce a z-score.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(engine.observe(SimTime::sec(i), "health.x", 1.0));
    EXPECT_FALSE(engine.observe(SimTime::sec(10), "health.x", 1.0));
    EXPECT_TRUE(engine.alerts().empty());
}

TEST(AlertEngine, SpikeFiresUpDropFiresDown)
{
    AlertConfig config;
    AuditLog audit(true);
    AlertEngine engine(config, &audit);
    // Mild noise gives the detector a real sigma...
    for (int i = 0; i < 12; ++i)
        engine.observe(SimTime::sec(i), "health.p99",
                       1.0 + 0.1 * (i % 2));
    // ...then a huge spike fires with direction +1.
    EXPECT_TRUE(engine.observe(SimTime::sec(12), "health.p99", 50.0));
    ASSERT_EQ(engine.alerts().size(), 1u);
    const Alert &alert = engine.alerts()[0];
    EXPECT_EQ(alert.series, "health.p99");
    EXPECT_EQ(alert.direction, 1);
    EXPECT_GE(alert.z, config.zThreshold);
    EXPECT_GT(alert.sigma, 0.0);

    // A fresh series dropping far below its baseline fires with -1.
    for (int i = 0; i < 12; ++i)
        engine.observe(SimTime::sec(i), "health.other",
                       100.0 + 0.5 * (i % 2));
    EXPECT_TRUE(
        engine.observe(SimTime::sec(12), "health.other", 0.0));
    ASSERT_EQ(engine.alerts().size(), 2u);
    EXPECT_EQ(engine.alerts()[1].direction, -1);

    // Both firings landed in the audit stream as obs.alert records.
    std::size_t obsAlerts = 0;
    for (const AuditRecord &rec : audit.records())
        if (rec.kind == AuditDecisionKind::ObsAlert)
            ++obsAlerts;
    EXPECT_EQ(obsAlerts, 2u);
    EXPECT_EQ(engine.toJson().asArray().size(), 2u);
}

TEST(AlertEngine, WatchesHealthTapsAndHeadroomOnly)
{
    EXPECT_TRUE(AlertEngine::watches("health.e2e_p99_s"));
    EXPECT_TRUE(AlertEngine::watches("health.stage2.p95_s"));
    EXPECT_TRUE(AlertEngine::watches("power.headroom_watts"));
    EXPECT_FALSE(AlertEngine::watches("app.completed_total"));
    EXPECT_FALSE(AlertEngine::watches("power.consumed_watts"));
}

// ------------------------------------------------- flags hardening

TEST(MetricsUnitsDeath, DuplicateRegistrationWithMismatchedUnitIsFatal)
{
    MetricsRegistry metrics;
    metrics.gauge("power.headroom_watts", "watts");
    EXPECT_EXIT(metrics.gauge("power.headroom_watts", "seconds"),
                testing::ExitedWithCode(1), "power.headroom_watts");
}

TEST(MetricsUnits, LaterUnitUpgradesUnitlessRegistration)
{
    MetricsRegistry metrics;
    metrics.counter("rpc.retries_total");
    EXPECT_EQ(metrics.unitOf("rpc.retries_total"), "");
    metrics.counter("rpc.retries_total", "retries");
    EXPECT_EQ(metrics.unitOf("rpc.retries_total"), "retries");
    // Same unit again is fine.
    metrics.counter("rpc.retries_total", "retries");
}

TEST(TelemetryFlagsDeath, NonPositiveMetricsIntervalIsFatal)
{
    FlagSet flags("test");
    addTelemetryFlags(&flags);
    const char *argv[] = {"test", "--metrics-interval=0"};
    ASSERT_TRUE(flags.parse(2, argv));
    EXPECT_EXIT(telemetryConfigFromFlags(flags),
                testing::ExitedWithCode(1), "metrics-interval");
}

// ------------------------------------------------- flush-on-fatal

TEST(FatalFlushDeath, HooksRunBeforeExit)
{
    const std::string path =
        testing::TempDir() + "/pc_fatal_flush_probe";
    std::filesystem::remove(path);
    EXPECT_EXIT(
        {
            FatalFlushGuard guard([&path]() {
                std::ofstream out(path);
                out << "flushed\n";
            });
            fatal("deliberate fatal");
        },
        testing::ExitedWithCode(1), "deliberate fatal");
    // The death-test child shares the filesystem: the hook's output
    // must exist even though the run aborted.
    std::ifstream in(path);
    std::string word;
    in >> word;
    EXPECT_EQ(word, "flushed");
    std::filesystem::remove(path);
}

TEST(FatalFlush, DestroyedGuardNeverFires)
{
    bool fired = false;
    {
        FatalFlushGuard guard([&fired]() { fired = true; });
    }
    FatalFlushGuard::runAll();
    EXPECT_FALSE(fired);
}

// ------------------------------------ determinism across --jobs

Scenario
tsScenario(int seed, bool lossy)
{
    Scenario sc =
        Scenario::mitigation(WorkloadModel::sirius(), LoadLevel::High,
                             PolicyKind::PowerChief, seed);
    sc.duration = SimTime::sec(120);
    sc.name = std::string("ts") + (lossy ? "-lossy" : "") + "/" +
        std::to_string(seed);
    if (lossy) {
        // The arena's lossy fabric: drops, reordering, stale and
        // truncated wire telemetry, dropped PERF_CTL writes.
        sc.faults.active = true;
        sc.faults.seed = 18;
        BusFaultRule bus;
        bus.dropRate = 0.03;
        bus.reorderRate = 0.1;
        bus.reorderJitterMax = SimTime::msec(5);
        sc.faults.bus.push_back(bus);
        sc.faults.telemetry.staleRate = 0.1;
        sc.faults.telemetry.truncateRate = 0.05;
        sc.faults.telemetry.perfCtlFailRate = 0.2;
        sc.wireReports = true;
        sc.control.staleWindow = SimTime::sec(60);
    }
    return sc;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Run a 3-scenario sweep with timeseries + alerts + SLO enabled at
 * @p jobs workers and return every per-scenario dump's bytes
 * (timeseries then audit, in scenario order).
 */
std::vector<std::string>
sweepDumps(int jobs, bool lossy, const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.jobs = jobs;
    options.slo.enabled = true;
    options.telemetry.timeseriesOut = dir + "/ts.json";
    options.telemetry.auditOut = dir + "/audit.json";
    options.telemetry.alertsEnabled = true;
    SweepRunner runner(options);
    std::vector<Scenario> scenarios;
    for (int seed = 1; seed <= 3; ++seed)
        scenarios.push_back(tsScenario(seed, lossy));
    const std::vector<RunResult> results = runner.runAll(scenarios);
    EXPECT_EQ(results.size(), 3u);
    std::vector<std::string> dumps;
    for (const Scenario &sc : scenarios) {
        const std::string tag = lossy
            ? "ts-lossy-" + sc.name.substr(sc.name.find('/') + 1)
            : "ts-" + sc.name.substr(sc.name.find('/') + 1);
        dumps.push_back(slurp(dir + "/ts." + tag + ".json"));
        dumps.push_back(slurp(dir + "/audit." + tag + ".json"));
    }
    return dumps;
}

TEST(TimeseriesDeterminism, DumpsByteIdenticalAcrossJobsClean)
{
    const std::string base = testing::TempDir() + "pc_ts_clean_";
    const std::vector<std::string> serial =
        sweepDumps(1, false, base + "j1");
    const std::vector<std::string> parallel =
        sweepDumps(3, false, base + "j3");
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], parallel[i]) << "dump " << i;
    }
    // The dump is a real timeseries document with health taps and the
    // SLO report embedded.
    EXPECT_NE(serial[0].find("\"health.e2e_p99_s\""),
              std::string::npos);
    EXPECT_NE(serial[0].find("\"slo\""), std::string::npos);
    EXPECT_NE(serial[0].find("\"alerts\""), std::string::npos);
}

TEST(TimeseriesDeterminism, DumpsByteIdenticalAcrossJobsLossy)
{
    const std::string base = testing::TempDir() + "pc_ts_lossy_";
    const std::vector<std::string> serial =
        sweepDumps(1, true, base + "j1");
    const std::vector<std::string> parallel =
        sweepDumps(3, true, base + "j3");
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], parallel[i]) << "dump " << i;
    }
    // The lossy fabric exercises the fault-rate health tap.
    EXPECT_NE(serial[0].find("\"health.fault_rate\""),
              std::string::npos);
}

TEST(TimeseriesDeterminism, MetricsDumpLeavesTimeseriesUnchanged)
{
    // The --metrics-interval snapshot publishes the query counts as
    // series of the metrics dump only: the timeseries file reads the
    // same bytes with and without a metrics dump.
    const Scenario sc = tsScenario(1, false);
    const std::string base = testing::TempDir() + "pc_ts_metrics_";
    std::string timeseries[2], metrics;
    for (const bool dump : {false, true}) {
        TelemetryConfig telemetry;
        telemetry.alertsEnabled = true;
        telemetry.timeseriesOut =
            base + (dump ? "dump" : "plain") + ".ts.json";
        if (dump)
            telemetry.metricsOut = base + "dump.metrics.json";
        ExperimentRunner runner;
        runner.run(sc, &telemetry);
        timeseries[dump] = slurp(telemetry.timeseriesOut);
        if (dump)
            metrics = slurp(telemetry.metricsOut);
    }
    EXPECT_EQ(timeseries[0].find("queries.submitted"), std::string::npos);
    EXPECT_EQ(timeseries[0], timeseries[1]);
    const JsonParseResult parsed = parseJson(metrics);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonObject &doc = parsed.value->asObject();
    EXPECT_GT(doc.at("series").asObject().at("queries.submitted")
                  .asArray()
                  .size(),
              0u);
    EXPECT_GT(doc.at("gauges").asObject().at("queries.completed")
                  .asNumber(),
              0.0);
}

} // namespace
} // namespace pc
