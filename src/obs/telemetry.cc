#include "obs/telemetry.h"

#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "common/logging.h"

namespace pc {

namespace {

std::string
sanitizeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '.' || c == '_' || c == '-';
        out.push_back(ok ? c : '-');
    }
    return out;
}

} // namespace

std::string
TelemetryConfig::resolveForScenario(const std::string &path,
                                    const std::string &scenario,
                                    bool multiRun)
{
    if (path.empty() || !multiRun)
        return path;
    const std::string tag = sanitizeName(scenario);
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

TelemetryConfig
TelemetryConfig::resolved(const std::string &scenario, bool multiRun) const
{
    TelemetryConfig out = *this;
    out.traceOut = resolveForScenario(traceOut, scenario, multiRun);
    out.metricsOut = resolveForScenario(metricsOut, scenario, multiRun);
    out.auditOut = resolveForScenario(auditOut, scenario, multiRun);
    out.timeseriesOut =
        resolveForScenario(timeseriesOut, scenario, multiRun);
    out.critpathOut =
        resolveForScenario(critpathOut, scenario, multiRun);
    return out;
}

Telemetry::Telemetry(TelemetryConfig config)
    : config_(std::move(config)), trace_(config_.tracingEnabled()),
      metrics_(config_.metricsEnabled()), audit_(config_.auditEnabled())
{
    trace_.setMetrics(&metrics_);
    if (config_.samplingEnabled())
        recorder_ = std::make_unique<TimeseriesRecorder>();
    if (config_.alertsEnabled) {
        AlertConfig alertConfig;
        alertConfig.zThreshold = config_.alertThreshold;
        alerts_ = std::make_unique<AlertEngine>(alertConfig, &audit_);
    }
    if (config_.critpathEnabled()) {
        // Per-interval critpath gauges join the registry only when the
        // run samples per interval, so metrics dumps without the
        // timeseries engine stay byte-identical.
        critpath_ = std::make_unique<CritPathCollector>(
            &audit_, config_.samplingEnabled() ? &metrics_ : nullptr,
            !config_.critpathOut.empty());
    }
}

void
Telemetry::onControlInterval(SimTime now)
{
    if (!recorder_)
        return;
    recorder_->sample(now, metrics_);
    if (!alerts_)
        return;
    // Detectors watch the health taps only; scoring the freshest ring
    // point keeps the alert stream a pure function of the samples. The
    // watched subset is re-derived only when a new series appears.
    if (recorder_->series().size() != watchedSeriesCount_) {
        watched_.clear();
        for (const auto &[name, series] : recorder_->series())
            if (AlertEngine::watches(name))
                watched_.push_back(&series);
        watchedSeriesCount_ = recorder_->series().size();
    }
    for (const TsSeries *series : watched_)
        alerts_->observe(now, series->name(), series->last());
}

void
Telemetry::writeOutputs(const std::string &scenarioName,
                        const SloReport *slo) const
{
    if (config_.tracingEnabled()) {
        std::ofstream out(config_.traceOut,
                          std::ios::binary | std::ios::trunc);
        if (!out.good())
            fatal("cannot write trace file '%s'",
                  config_.traceOut.c_str());
        trace_.writeChromeTrace(out);
    }
    if (config_.metricsEnabled()) {
        std::ofstream out(config_.metricsOut,
                          std::ios::binary | std::ios::trunc);
        if (!out.good())
            fatal("cannot write metrics file '%s'",
                  config_.metricsOut.c_str());
        if (config_.metricsCsv())
            metrics_.writeCsv(out);
        else
            metrics_.writeJson(out, scenarioName);
    }
    // Collect-only audit mode has no file to write.
    if (!config_.auditOut.empty()) {
        std::ofstream out(config_.auditOut,
                          std::ios::binary | std::ios::trunc);
        if (!out.good())
            fatal("cannot write audit file '%s'",
                  config_.auditOut.c_str());
        audit_.writeJson(out);
    }
    if (config_.timeseriesEnabled() && recorder_) {
        std::ofstream out(config_.timeseriesOut,
                          std::ios::binary | std::ios::trunc);
        if (!out.good())
            fatal("cannot write timeseries file '%s'",
                  config_.timeseriesOut.c_str());
        if (config_.metricsFormat == "openmetrics") {
            recorder_->writeOpenMetrics(out, scenarioName);
        } else {
            JsonObject doc = recorder_->toJson().asObject();
            doc["alerts"] = alerts_ ? alerts_->toJson()
                                    : JsonValue(JsonArray{});
            if (!scenarioName.empty())
                doc["scenario"] = JsonValue(scenarioName);
            if (slo && slo->collected)
                doc["slo"] = sloReportToJson(*slo);
            out << JsonValue(std::move(doc)).dump() << '\n';
        }
    }
    if (!config_.critpathOut.empty() && critpath_) {
        std::ofstream out(config_.critpathOut,
                          std::ios::binary | std::ios::trunc);
        if (!out.good())
            fatal("cannot write critpath file '%s'",
                  config_.critpathOut.c_str());
        critpath_->writeJson(out, scenarioName);
    }
}

void
addTelemetryFlags(FlagSet *flags)
{
    flags->addString("trace-out", "",
                     "write a Chrome/Perfetto trace-event JSON file per "
                     "run (multi-run sweeps insert the scenario name "
                     "before the extension)");
    flags->addString("metrics-out", "",
                     "write a metrics dump per run (JSON, or CSV with a "
                     ".csv extension); scenario-name insertion as for "
                     "--trace-out");
    flags->addDouble("metrics-interval", 5.0,
                     "seconds between metric time-series snapshots");
    flags->addString("audit-out", "",
                     "write a decision-audit JSON file per run (every "
                     "boost/recycle/withdraw decision with its inputs "
                     "and prediction score); scenario-name insertion as "
                     "for --trace-out");
    flags->addBool("attribution", false,
                   "collect and print the tail-attribution report "
                   "(per-stage queue/serve contributions to p95/p99 "
                   "end-to-end latency)");
    flags->addString("timeseries-out", "",
                     "write a per-control-interval time-series dump per "
                     "run (ring-buffered samples of every stable metric "
                     "plus the controller-health taps); scenario-name "
                     "insertion as for --trace-out");
    flags->addString("metrics-format", "json",
                     "format of the --timeseries-out file: json "
                     "(delta-encoded series) or openmetrics (text "
                     "exposition)");
    flags->addString("critpath-out", "",
                     "write a critical-path profile JSON file per run "
                     "(per-stage critical-path shares, path signatures "
                     "and the controller's bottleneck-agreement score); "
                     "scenario-name insertion as for --trace-out");
    flags->addBool("alerts", false,
                   "run the online anomaly detectors (EWMA z-score over "
                   "the controller-health taps) and emit obs.alert "
                   "records into the audit stream");
    flags->addDouble("alert-threshold", 4.0,
                     "|z| at or above which an anomaly detector fires");
    flags->addBool("slo", false,
                   "track the latency SLO (multi-window burn rates, "
                   "violation seconds) and report it per run");
    flags->addDouble("slo-target", 0.0,
                     "SLO latency target in seconds (0 = auto: the "
                     "scenario QoS target, else 3x the summed stage "
                     "service means)");
    flags->addDouble("slo-objective", 0.99,
                     "fraction of queries that must meet the SLO "
                     "target, in (0,1)");
    flags->addDouble("slo-fast-window", 60.0,
                     "fast burn-rate window in seconds");
    flags->addDouble("slo-slow-window", 300.0,
                     "slow burn-rate window in seconds");
}

namespace {

/**
 * fatal() unless @p path can be opened for writing, so a typo'd
 * directory fails at startup rather than silently dropping the dump
 * after a long run. The probe appends (never truncates) and removes
 * the file again if it did not exist before.
 */
void
requireWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return;
    const bool existed = std::ifstream(path).good();
    std::ofstream probe(path, std::ios::binary | std::ios::app);
    if (!probe.good())
        fatal("--%s: cannot write '%s' (missing directory or no "
              "permission)", flag, path.c_str());
    probe.close();
    if (!existed)
        std::remove(path.c_str());
}

} // namespace

TelemetryConfig
telemetryConfigFromFlags(const FlagSet &flags)
{
    TelemetryConfig config;
    config.traceOut = flags.getString("trace-out");
    config.metricsOut = flags.getString("metrics-out");
    config.auditOut = flags.getString("audit-out");
    const double interval = flags.getDouble("metrics-interval");
    if (interval <= 0.0)
        fatal("--metrics-interval must be positive (got %f)", interval);
    config.metricsInterval = SimTime::sec(interval);
    config.timeseriesOut = flags.getString("timeseries-out");
    config.metricsFormat = flags.getString("metrics-format");
    if (config.metricsFormat != "json" &&
        config.metricsFormat != "openmetrics")
        fatal("--metrics-format must be 'json' or 'openmetrics' "
              "(got '%s')", config.metricsFormat.c_str());
    config.critpathOut = flags.getString("critpath-out");
    config.alertsEnabled = flags.getBool("alerts");
    config.alertThreshold = flags.getDouble("alert-threshold");
    if (config.alertThreshold <= 0.0)
        fatal("--alert-threshold must be positive (got %f)",
              config.alertThreshold);
    requireWritable(config.traceOut, "trace-out");
    requireWritable(config.metricsOut, "metrics-out");
    requireWritable(config.auditOut, "audit-out");
    requireWritable(config.timeseriesOut, "timeseries-out");
    requireWritable(config.critpathOut, "critpath-out");
    return config;
}

SloConfig
sloConfigFromFlags(const FlagSet &flags)
{
    SloConfig config;
    config.enabled = flags.getBool("slo");
    config.targetSec = flags.getDouble("slo-target");
    config.objective = flags.getDouble("slo-objective");
    config.fastWindowSec = flags.getDouble("slo-fast-window");
    config.slowWindowSec = flags.getDouble("slo-slow-window");
    if (config.targetSec < 0.0)
        fatal("--slo-target must be non-negative (got %f)",
              config.targetSec);
    if (config.objective <= 0.0 || config.objective >= 1.0)
        fatal("--slo-objective must be in (0,1) (got %f)",
              config.objective);
    if (config.fastWindowSec <= 0.0 || config.slowWindowSec <= 0.0)
        fatal("--slo-fast-window/--slo-slow-window must be positive "
              "(got %f / %f)", config.fastWindowSec,
              config.slowWindowSec);
    if (config.fastWindowSec > config.slowWindowSec)
        fatal("--slo-fast-window (%f) exceeds --slo-slow-window (%f)",
              config.fastWindowSec, config.slowWindowSec);
    return config;
}

} // namespace pc
