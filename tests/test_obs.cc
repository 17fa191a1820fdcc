/** @file Tests for the telemetry layer: metrics, spans, exports. */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"

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

// ---------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("c");
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);

    Gauge &g = registry.gauge("g");
    g.set(7.0);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);

    Histogram &h = registry.histogram("h");
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    // ExactPercentile interpolates between the order statistics.
    EXPECT_DOUBLE_EQ(h.p99(), 99.01);
    EXPECT_FALSE(registry.empty());
}

TEST(Metrics, MomentsDoNotDependOnSampleRetention)
{
    MetricsRegistry kept;
    MetricsRegistry dropped(/*keepHistogramSamples=*/false);
    Histogram &a = kept.histogram("lat");
    Histogram &b = dropped.histogram("lat");
    for (int i = 0; i < 1000; ++i) {
        const double x = 0.001 * ((i * 37) % 101) - 0.02;
        a.add(x);
        b.add(x);
    }
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.sum(), b.sum());
}

TEST(Metrics, EmptyNonRetainingHistogramStillSerializes)
{
    MetricsRegistry kept;
    MetricsRegistry dropped(/*keepHistogramSamples=*/false);
    kept.histogram("lat");
    dropped.histogram("lat");
    EXPECT_EQ(dropped.toJson().dump(), kept.toJson().dump());
}

TEST(MetricsDeathTest, ReadingDroppedSamplesPanicsNamingTheHistogram)
{
    MetricsRegistry registry(/*keepHistogramSamples=*/false);
    Histogram &h = registry.histogram("latency.e2e_sec");
    h.add(0.5);
    EXPECT_DEATH((void)h.quantile(0.5), "latency.e2e_sec");
    EXPECT_DEATH((void)h.p99(), "latency.e2e_sec");
    EXPECT_DEATH((void)h.countAtOrBelow(1.0), "latency.e2e_sec");
    EXPECT_DEATH((void)registry.toJson(), "latency.e2e_sec");
    std::ostringstream csv;
    EXPECT_DEATH(registry.writeCsv(csv), "latency.e2e_sec");
}

TEST(Metrics, FindOrCreateReturnsTheSameInstrument)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    a.add(5.0);
    EXPECT_EQ(&a, &registry.counter("x"));
    EXPECT_DOUBLE_EQ(registry.counter("x").value(), 5.0);
}

TEST(Metrics, VolatileMetricsExcludedFromDumpsByDefault)
{
    MetricsRegistry registry;
    registry.counter("stable").add();
    registry.histogram("wallclock", Volatility::Volatile).add(1.0);

    const JsonValue normal = parsed(registry.toJson().dump());
    EXPECT_NE(normal.find("counters")->find("stable"), nullptr);
    EXPECT_EQ(normal.find("histograms")->find("wallclock"), nullptr);

    const JsonValue full = parsed(registry.toJson(true).dump());
    EXPECT_NE(full.find("histograms")->find("wallclock"), nullptr);
}

TEST(Metrics, IdenticalOperationsProduceIdenticalDumps)
{
    auto populate = [](MetricsRegistry &registry) {
        registry.counter("z.last").add(3);
        registry.counter("a.first").add(1);
        registry.gauge("mid").set(0.1234567890123);
        registry.histogram("lat").add(0.25);
        registry.snapshot(SimTime::sec(5));
    };
    MetricsRegistry first, second;
    populate(first);
    populate(second);

    std::ostringstream a, b;
    first.writeJson(a, "scenario-x");
    second.writeJson(b, "scenario-x");
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.str().back(), '\n');
}

TEST(Metrics, SnapshotAppendsStableSeries)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("jobs");
    c.add();
    registry.snapshot(SimTime::sec(1));
    c.add();
    registry.snapshot(SimTime::sec(2));

    const JsonValue root = parsed(registry.toJson().dump());
    const JsonValue *series = root.find("series")->find("jobs");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(series->asArray()[0].asArray()[1].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(series->asArray()[1].asArray()[1].asNumber(), 2.0);
}

TEST(Metrics, CsvDumpContainsEveryKind)
{
    MetricsRegistry registry;
    registry.counter("c").add(2);
    registry.gauge("g").set(4);
    registry.histogram("h").add(8);
    std::ostringstream out;
    registry.writeCsv(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("c,counter"), std::string::npos);
    EXPECT_NE(text.find("g,gauge"), std::string::npos);
    EXPECT_NE(text.find("h,histogram"), std::string::npos);
}

TEST(Metrics, ClearDropsEverything)
{
    MetricsRegistry registry;
    registry.counter("c").add();
    registry.snapshot(SimTime::sec(1));
    registry.clear();
    EXPECT_TRUE(registry.empty());
}

// ----------------------------------------------------------- logger

TEST(Logger, GlobalRegistryCountsWarningsEvenWhenSuppressed)
{
    MetricsRegistry &global = MetricsRegistry::global();
    const double warnsBefore =
        global.counter("log.warnings_total").value();
    const double errorsBefore =
        global.counter("log.errors_total").value();

    // Raise the level so nothing is emitted; the hook still counts.
    const LogLevel oldLevel = Logger::instance().level();
    Logger::instance().setLevel(LogLevel::Off);
    logWarn("suppressed warning %d", 1);
    logError("suppressed error %d", 2);
    Logger::instance().setLevel(oldLevel);

    EXPECT_DOUBLE_EQ(global.counter("log.warnings_total").value(),
                     warnsBefore + 1.0);
    EXPECT_DOUBLE_EQ(global.counter("log.errors_total").value(),
                     errorsBefore + 1.0);
}

TEST(Logger, EmitsTimestampAndLevelPrefix)
{
    MetricsRegistry::global(); // ensure the hook install is covered
    testing::internal::CaptureStderr();
    logError("boom %d", 42);
    const std::string text = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(testing::internal::RE::FullMatch(
        text,
        testing::internal::RE(
            "\\[[0-9]{4}-[0-9]{2}-[0-9]{2} "
            "[0-9]{2}:[0-9]{2}:[0-9]{2}\\] \\[ERROR\\] boom 42\n")))
        << "unexpected log line: " << text;
}

// ------------------------------------------------------- trace sink

Query
twoHopQuery(std::int64_t id)
{
    Query q(id, SimTime::zero(),
            std::vector<WorkDemand>{{1.0, 0.0}, {1.0, 0.0}});
    HopRecord first;
    first.instanceId = 101;
    first.stageIndex = 0;
    first.enqueued = SimTime::sec(1);
    first.started = SimTime::sec(2);
    first.finished = SimTime::sec(3);
    q.addHop(first);
    HopRecord second;
    second.instanceId = 202;
    second.stageIndex = 1;
    second.enqueued = SimTime::sec(3);
    second.started = SimTime::sec(3); // no queue wait at hop 2
    second.finished = SimTime::sec(5);
    q.addHop(second);
    return q;
}

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    TraceSink sink(false);
    sink.declareInstanceTrack(101, "QA_1", 0);
    sink.span(TraceSink::kControlTrack, "s", "c", SimTime::zero(),
              SimTime::sec(1));
    sink.instant(TraceSink::kControlTrack, "i", "c", SimTime::sec(1));
    sink.recordQueryHops(twoHopQuery(7));
    EXPECT_EQ(sink.numEvents(), 0u);
}

TEST(TraceSink, UnknownInstanceFallsBackToControlTrack)
{
    TraceSink sink(true);
    EXPECT_EQ(sink.trackForInstance(999), TraceSink::kControlTrack);
    sink.declareInstanceTrack(999, "QA_1", 0);
    EXPECT_NE(sink.trackForInstance(999), TraceSink::kControlTrack);
}

TEST(TraceSink, ChromeExportIsWellFormed)
{
    TraceSink sink(true);
    sink.declareInstanceTrack(101, "QA_1", 0);
    sink.declareInstanceTrack(202, "ASR_1", 1);
    sink.recordQueryHops(twoHopQuery(7));
    JsonObject args;
    args["subject"] = JsonValue("QA_1");
    sink.instant(TraceSink::kControlTrack, "freq-boost", "decision",
                 SimTime::sec(4), std::move(args));

    std::ostringstream out;
    sink.writeChromeTrace(out);
    const JsonValue root = parsed(out.str());
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Expect: wait+serve spans for hop 1 (queue wait 1s), a serve span
    // for hop 2 (no wait), flow start+finish, the instant, plus
    // metadata records; timestamps of non-metadata events monotone.
    std::size_t spans = 0, flows = 0, instants = 0;
    double lastTs = -1.0;
    for (const JsonValue &ev : events->asArray()) {
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M")
            continue;
        const double ts = ev.find("ts")->asNumber();
        EXPECT_GE(ts, lastTs);
        lastTs = ts;
        if (ph == "X")
            ++spans;
        else if (ph == "s" || ph == "t" || ph == "f")
            ++flows;
        else if (ph == "i")
            ++instants;
    }
    EXPECT_EQ(spans, 3u);
    EXPECT_EQ(flows, 2u);
    EXPECT_EQ(instants, 1u);
}

TEST(TraceSinkDeath, BackwardsSpanPanics)
{
    TraceSink sink(true);
    EXPECT_DEATH(sink.span(TraceSink::kControlTrack, "bad", "c",
                           SimTime::sec(2), SimTime::sec(1)),
                 "ends before");
}

// -------------------------------------------------------- telemetry

TEST(TelemetryConfig, ResolvesPerScenarioPaths)
{
    EXPECT_EQ(TelemetryConfig::resolveForScenario("out/t.json",
                                                  "fig11/PowerChief",
                                                  true),
              "out/t.fig11-PowerChief.json");
    EXPECT_EQ(TelemetryConfig::resolveForScenario("trace", "a b", true),
              "trace.a-b");
    // Single-run invocations keep the user's path untouched.
    EXPECT_EQ(TelemetryConfig::resolveForScenario("t.json", "x", false),
              "t.json");
    EXPECT_EQ(TelemetryConfig::resolveForScenario("", "x", true), "");
}

Scenario
smallScenario(const std::string &name, std::uint64_t seed)
{
    Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                       LoadLevel::High,
                                       PolicyKind::PowerChief,
                                       static_cast<int>(seed));
    sc.duration = SimTime::sec(120);
    sc.name = name;
    return sc;
}

TEST(TelemetryEndToEnd, PureObserverAndMatchingPercentiles)
{
    const std::string dir = testing::TempDir();
    const Scenario sc = smallScenario("obs/pure", 11);

    const ExperimentRunner runner;
    const RunResult bare = runner.run(sc);

    TelemetryConfig cfg;
    cfg.traceOut = dir + "obs_pure_trace.json";
    cfg.metricsOut = dir + "obs_pure_metrics.json";
    const RunResult observed = runner.run(sc, &cfg);

    // Telemetry must not perturb the simulation at all.
    EXPECT_EQ(runResultToJson(bare).dump(),
              runResultToJson(observed).dump());

    // The dumped e2e histogram is built from the very samples behind
    // the printed result, so the percentiles agree exactly.
    const JsonValue metrics = parsed(slurp(cfg.metricsOut));
    const JsonValue *e2e =
        metrics.find("histograms")->find("latency.e2e_sec");
    ASSERT_NE(e2e, nullptr);
    EXPECT_DOUBLE_EQ(e2e->find("p99")->asNumber(),
                     observed.p99LatencySec);
    EXPECT_DOUBLE_EQ(e2e->find("mean")->asNumber(),
                     observed.avgLatencySec);

    // One serve span per completed hop reached the trace.
    const JsonValue trace = parsed(slurp(cfg.traceOut));
    std::size_t serveSpans = 0;
    for (const JsonValue &ev : trace.find("traceEvents")->asArray()) {
        if (ev.find("ph")->asString() == "X" &&
            ev.stringOr("cat", "") == "serve")
            ++serveSpans;
    }
    std::uint64_t hops = 0;
    for (const auto &stage : observed.stageBreakdown)
        hops += stage.hops;
    EXPECT_GE(serveSpans, hops);
}

TEST(TelemetryEndToEnd, SweepFilesByteIdenticalAtAnyJobs)
{
    const std::string dir = testing::TempDir();
    const std::vector<Scenario> scenarios = {
        smallScenario("obs/sweep-a", 21),
        smallScenario("obs/sweep-b", 22)};

    auto runWith = [&](int jobs, const std::string &tag) {
        SweepOptions options;
        options.jobs = jobs;
        options.telemetry.traceOut = dir + tag + "_t.json";
        options.telemetry.metricsOut = dir + tag + "_m.json";
        options.telemetry.auditOut = dir + tag + "_a.json";
        SweepRunner sweep(options);
        sweep.runAll(scenarios);
        return tag;
    };
    runWith(1, "obs_serial");
    runWith(4, "obs_parallel");

    for (const char *kind : {"_t", "_m", "_a"}) {
        for (const char *sc : {"obs-sweep-a", "obs-sweep-b"}) {
            const std::string serial = dir + "obs_serial" +
                std::string(kind) + "." + sc + ".json";
            const std::string parallel = dir + "obs_parallel" +
                std::string(kind) + "." + sc + ".json";
            EXPECT_EQ(slurp(serial), slurp(parallel))
                << serial << " vs " << parallel;
        }
    }
}

TEST(TelemetryFlagsDeath, UnwritableOutputPathsAreRejectedAtParse)
{
    const auto configFor = [](const char *arg) {
        FlagSet flags("t");
        addTelemetryFlags(&flags);
        const char *argv[] = {"t", arg};
        if (!flags.parse(2, argv))
            fatal("unexpected parse failure");
        (void)telemetryConfigFromFlags(flags);
    };
    // A missing directory must fail fast at flag validation, not after
    // a long run when the file is finally opened.
    EXPECT_DEATH(configFor("--trace-out=/nonexistent-pc-dir/t.json"),
                 "--trace-out: cannot write");
    EXPECT_DEATH(configFor("--metrics-out=/nonexistent-pc-dir/m.json"),
                 "--metrics-out: cannot write");
    EXPECT_DEATH(configFor("--audit-out=/nonexistent-pc-dir/a.json"),
                 "--audit-out: cannot write");
}

TEST(TelemetryFlags, WritablePathsAndAttributionParse)
{
    const std::string dir = testing::TempDir();
    const std::string arg = "--audit-out=" + dir + "flags_a.json";
    FlagSet flags("t");
    addTelemetryFlags(&flags);
    const char *argv[] = {"t", arg.c_str(), "--attribution"};
    ASSERT_TRUE(flags.parse(3, argv));
    const TelemetryConfig cfg = telemetryConfigFromFlags(flags);
    EXPECT_TRUE(cfg.auditEnabled());
    EXPECT_TRUE(cfg.anyEnabled());
    EXPECT_TRUE(flags.getBool("attribution"));
    // The writability probe must not leave a file behind.
    std::ifstream probe(dir + "flags_a.json");
    EXPECT_FALSE(probe.good());
}

} // namespace
} // namespace pc
