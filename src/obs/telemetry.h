/**
 * @file
 * The per-run telemetry bundle: one TraceSink plus one MetricsRegistry
 * behind a single pointer.
 *
 * Components hold a `Telemetry *` (nullptr = observability off — the
 * null-sink fast path is one branch) and cache their Counter/Gauge/
 * Histogram pointers at wiring time. The ExperimentRunner owns one
 * Telemetry per run when --trace-out/--metrics-out ask for output, so
 * concurrent sweep runs never share mutable telemetry state and output
 * files are byte-identical at any --jobs value.
 */

#ifndef PC_OBS_TELEMETRY_H
#define PC_OBS_TELEMETRY_H

#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/alerts.h"
#include "obs/audit.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"

namespace pc {

class FlagSet;

/** What to collect and where to write it; empty paths disable. */
struct TelemetryConfig
{
    /** Chrome/Perfetto trace-event JSON output path. */
    std::string traceOut;

    /** Metrics JSON dump path (.csv extension switches to CSV). */
    std::string metricsOut;

    /** Decision-audit JSON dump path (src/obs/audit.h). */
    std::string auditOut;

    /**
     * Collect the decision-audit log in memory without writing a file
     * (the runner summarizes it into RunResult::audit). Independent of
     * auditOut: either one enables collection.
     */
    bool auditCollect = false;

    /** Period of the gauge/counter TimeSeries snapshots. */
    SimTime metricsInterval = SimTime::sec(5);

    /**
     * Per-control-interval time-series dump path (obs/timeseries.h).
     * Enables the controller-health taps and one recorder sample per
     * control interval.
     */
    std::string timeseriesOut;

    /** Format of the timeseriesOut file: "json" or "openmetrics". */
    std::string metricsFormat = "json";

    /**
     * Run the online anomaly detectors (obs/alerts.h) over the health
     * taps. Implies audit collection — alerts are obs.alert records in
     * the audit stream — and per-interval sampling even without a
     * timeseriesOut file.
     */
    bool alertsEnabled = false;

    /** |z| threshold of the alert detectors. */
    double alertThreshold = 4.0;

    /** Critical-path profile JSON dump path (obs/critpath.h). */
    std::string critpathOut;

    /**
     * Collect the critical-path profile in memory without writing a
     * file (the runner summarizes it into RunResult::critpath).
     * Independent of critpathOut: either one enables collection.
     */
    bool critpathCollect = false;

    bool tracingEnabled() const { return !traceOut.empty(); }
    bool metricsEnabled() const { return !metricsOut.empty(); }
    /** A .csv --metrics-out asks for CSV instead of JSON. */
    bool metricsCsv() const { return metricsOut.ends_with(".csv"); }
    bool timeseriesEnabled() const { return !timeseriesOut.empty(); }
    bool auditEnabled() const
    {
        return !auditOut.empty() || auditCollect || alertsEnabled;
    }
    /** Health taps + per-interval sampling are on (tentpole switch). */
    bool samplingEnabled() const
    {
        return timeseriesEnabled() || alertsEnabled;
    }
    bool critpathEnabled() const
    {
        return !critpathOut.empty() || critpathCollect;
    }
    bool anyEnabled() const
    {
        return tracingEnabled() || metricsEnabled() || auditEnabled() ||
            samplingEnabled() || critpathEnabled();
    }

    /**
     * Per-scenario output path: "fig11.json" for scenario
     * "fig11/PowerChief" in a multi-run sweep becomes
     * "fig11.fig11-PowerChief.json", so parallel runs never write the
     * same file. Single-run sweeps keep the path verbatim.
     */
    static std::string resolveForScenario(const std::string &path,
                                          const std::string &scenario,
                                          bool multiRun);

    /** This config with both paths resolved for @p scenario. */
    TelemetryConfig resolved(const std::string &scenario,
                             bool multiRun) const;
};

class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig config);

    TraceSink &trace() { return trace_; }
    const TraceSink &trace() const { return trace_; }
    /**
     * The run's registry. Its histograms keep samples (exact
     * quantiles and buckets) only when metricsEnabled() will dump it.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }
    AuditLog &audit() { return audit_; }
    const AuditLog &audit() const { return audit_; }

    bool tracing() const { return config_.tracingEnabled(); }

    /** Per-interval sampling + health taps are on (see config). */
    bool sampling() const { return recorder_ != nullptr; }

    /** The timeseries recorder; nullptr unless sampling() is on. */
    TimeseriesRecorder *recorder() { return recorder_.get(); }
    const TimeseriesRecorder *recorder() const { return recorder_.get(); }

    /** The anomaly engine; nullptr unless alerts are enabled. */
    AlertEngine *alerts() { return alerts_.get(); }
    const AlertEngine *alerts() const { return alerts_.get(); }

    /** The critical-path collector; nullptr unless enabled (config). */
    CritPathCollector *critpath() { return critpath_.get(); }
    const CritPathCollector *critpath() const { return critpath_.get(); }

    /**
     * One control interval elapsed: sample every stable metric into
     * the timeseries rings and run the anomaly detectors over the
     * watched health taps. Driven by CommandCenter::tick() after the
     * interval's gauges are set; a no-op unless sampling() is on.
     */
    void onControlInterval(SimTime now);

    const TelemetryConfig &config() const { return config_; }

    /**
     * Write the configured outputs (trace JSON, metrics JSON/CSV,
     * audit JSON, timeseries JSON/OpenMetrics). fatal()s when a file
     * cannot be created. @p slo, when non-null and collected, is
     * embedded in the timeseries dump.
     */
    void writeOutputs(const std::string &scenarioName,
                      const SloReport *slo = nullptr) const;

  private:
    TelemetryConfig config_;
    TraceSink trace_;
    MetricsRegistry metrics_;
    AuditLog audit_;
    std::unique_ptr<TimeseriesRecorder> recorder_;
    std::unique_ptr<AlertEngine> alerts_;
    std::unique_ptr<CritPathCollector> critpath_;
    /**
     * Watched-series cache for the per-interval alert scan: rebuilt
     * only when the recorder grows a new series, so the steady state
     * never re-walks the full series map.
     */
    std::vector<const TsSeries *> watched_;
    std::size_t watchedSeriesCount_ = 0;
};

/**
 * Register the telemetry flag surface: --trace-out, --metrics-out,
 * --metrics-interval, --audit-out, --timeseries-out, --metrics-format,
 * --critpath-out, --alerts, --alert-threshold, --attribution, and the
 * SLO flags
 * (--slo, --slo-target, --slo-objective, --slo-fast-window,
 * --slo-slow-window) read by the sweep layer.
 */
void addTelemetryFlags(FlagSet *flags);

/**
 * Build a TelemetryConfig from the standard telemetry flags. fatal()s
 * on invalid inputs: a non-positive --metrics-interval, an unknown
 * --metrics-format, a non-positive --alert-threshold, or an output
 * path that cannot be opened for writing.
 */
TelemetryConfig telemetryConfigFromFlags(const FlagSet &flags);

/**
 * Build an SloConfig from the --slo* flags. fatal()s on a negative
 * --slo-target, an objective outside (0,1), or non-positive/inverted
 * windows.
 */
SloConfig sloConfigFromFlags(const FlagSet &flags);

} // namespace pc

#endif // PC_OBS_TELEMETRY_H
