/**
 * @file
 * Named metrics registry: counters, gauges and histograms.
 *
 * Every run of the PowerChief runtime instruments itself through one
 * MetricsRegistry — boost counts, recycled watts, budget headroom,
 * queue depths, per-stage latency histograms — which is dumped as JSON
 * or CSV at the end of the run and periodically snapshotted into
 * per-metric TimeSeries. A registry is owned per experiment run (the
 * sweep engine executes many runs concurrently, and per-run ownership
 * is what keeps dumps byte-identical at any --jobs value); the
 * process-wide global() registry carries cross-run counters such as
 * sweep cache hits and the Logger's warning/error totals.
 *
 * Counters and gauges are lock-free (atomics) and safe to touch from
 * the sweep's worker threads; histograms are single-writer, which
 * every simulation is. A histogram keeps its moments always and its
 * samples (for exact quantiles and buckets) only in a registry built
 * to be dumped.
 *
 * Metrics registered as Volatility::Volatile (wall-clock or
 * host-dependent values) are excluded from dumps by default so output
 * files stay deterministic functions of the scenario.
 */

#ifndef PC_OBS_METRICS_H
#define PC_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/time.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "stats/timeseries.h"

namespace pc {

enum class Volatility {
    /** Deterministic function of the scenario; included in dumps. */
    Stable,
    /** Wall-clock or host-dependent; excluded from dumps by default. */
    Volatile,
};

/** Monotonically increasing sum; thread-safe. */
class Counter
{
  public:
    void
    add(double delta = 1.0)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-write-wins instantaneous value; thread-safe. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Sample distribution: streaming moments (count, mean, min, max, sum)
 * always; exact quantiles and buckets only when the histogram keeps
 * its samples, which its registry decides (MetricsRegistry).
 */
class Histogram
{
  public:
    Histogram(std::string name, bool keepSamples)
        : name_(std::move(name)), keepSamples_(keepSamples)
    {
    }

    void
    add(double x)
    {
        if (keepSamples_)
            exact_.add(x);
        stats_.add(x);
        sum_ += x;
    }

    std::size_t count() const { return stats_.count(); }
    double sum() const { return sum_; }
    double mean() const { return stats_.mean(); }
    double min() const { return stats_.min(); }
    double max() const { return stats_.max(); }
    double quantile(double q) const { return samples().quantile(q); }
    double p99() const { return samples().p99(); }

    /** Samples <= @p x (cumulative bucket count). */
    std::size_t countAtOrBelow(double x) const
    {
        return samples().countAtOrBelow(x);
    }

  private:
    /** The retained samples; panic()s when they were dropped. */
    const ExactPercentile &samples() const;

    std::string name_;
    bool keepSamples_;
    ExactPercentile exact_;
    StreamingStats stats_;
    double sum_ = 0.0;
};

/**
 * Fixed log-decade bucket boundaries shared by the JSON/CSV histogram
 * serialization and trace-validate. Cumulative ("le") semantics; the
 * implicit final bucket is +inf (== count).
 */
inline constexpr double kHistogramBucketBounds[] = {0.001, 0.01, 0.1,
                                                    1.0,   10.0, 100.0};
inline constexpr std::size_t kNumHistogramBuckets =
    sizeof(kHistogramBucketBounds) / sizeof(kHistogramBucketBounds[0]);

class MetricsRegistry
{
  public:
    /**
     * @param keepHistogramSamples whether histograms retain every
     *        sample for the exact quantiles and buckets of a dump.
     *        Registries that are never dumped pass false and keep
     *        only the moments the timeseries recorder samples.
     */
    explicit MetricsRegistry(bool keepHistogramSamples = true)
        : keepHistogramSamples_(keepHistogramSamples)
    {
    }

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Find-or-create by name. The returned reference stays valid for
     * the registry's lifetime; instruments cache it once at wiring time
     * so the hot path is a pointer increment.
     *
     * @param unit optional unit string ("seconds", "watts", ...) used
     *        by the OpenMetrics exposition. Registering a name twice
     *        with two different non-empty units is a wiring bug and
     *        fatal()s, naming the offender; a later non-empty unit
     *        upgrades an earlier unit-less registration.
     */
    Counter &counter(const std::string &name,
                     Volatility vol = Volatility::Stable);
    Counter &counter(const std::string &name, const std::string &unit,
                     Volatility vol = Volatility::Stable);
    Gauge &gauge(const std::string &name,
                 Volatility vol = Volatility::Stable);
    Gauge &gauge(const std::string &name, const std::string &unit,
                 Volatility vol = Volatility::Stable);
    Histogram &histogram(const std::string &name,
                         Volatility vol = Volatility::Stable);
    Histogram &histogram(const std::string &name, const std::string &unit,
                         Volatility vol = Volatility::Stable);

    /** Unit registered for @p name ("" when none or unknown). */
    std::string unitOf(const std::string &name) const;

    /**
     * Scalar metric kinds the timeseries recorder samples (histograms
     * are visited through their count/mean projections).
     */
    enum class SampleKind { Counter, Gauge };

    /**
     * Visit every stable counter and gauge (and each histogram's
     * count/mean projection) in name order — the sampling surface of
     * the timeseries recorder (obs/timeseries.h).
     */
    void visitStable(
        const std::function<void(const std::string &name, SampleKind kind,
                                 const std::string &unit, double value)>
            &fn) const;

    /**
     * Append every stable counter and gauge value to its TimeSeries —
     * the periodic snapshot behind --metrics-interval — plus one point
     * per @p extra (name, value) pair to the series of that name. The
     * extras are series only, never metrics, so the timeseries
     * recorder does not sample them and a run's timeseries reads the
     * same with or without a metrics dump.
     */
    void snapshot(
        SimTime now,
        std::initializer_list<std::pair<const char *, double>> extra =
            {});

    /**
     * Serialize to a JSON object: {"counters": {..}, "gauges": {..},
     * "histograms": {name: {count, mean, min, max, p50, p90, p99}},
     * "series": {name: [[t_usec, value], ..]}}. Map-ordered keys and
     * exact double round-tripping make the dump deterministic.
     * Serializing a registry built without histogram samples panic()s
     * once a histogram holds data.
     */
    JsonValue toJson(bool includeVolatile = false) const;

    /** Write toJson(), a trailing newline, and optional scenario tag. */
    void writeJson(std::ostream &out, const std::string &scenario = "",
                   bool includeVolatile = false) const;

    /** Flat "name,kind,field,value" CSV of the same content. */
    void writeCsv(std::ostream &out, bool includeVolatile = false) const;

    bool empty() const;

    /** Drop every metric and series (tests; global-registry hygiene). */
    void clear();

    /**
     * The process-wide registry for cross-run metrics. First use
     * installs the Logger hook that counts logWarn()/logError() calls
     * into the "log.warnings_total" / "log.errors_total" counters.
     */
    static MetricsRegistry &global();

  private:
    template <typename T>
    struct Named
    {
        std::unique_ptr<T> metric;
        Volatility vol = Volatility::Stable;
        std::string unit;
    };

    template <typename T>
    T &findOrCreate(std::map<std::string, Named<T>> *metrics,
                    const std::string &name, const std::string &unit,
                    Volatility vol, const char *kind);

    const bool keepHistogramSamples_;
    mutable std::mutex mutex_;
    std::map<std::string, Named<Counter>> counters_;
    std::map<std::string, Named<Gauge>> gauges_;
    std::map<std::string, Named<Histogram>> histograms_;
    std::map<std::string, TimeSeries> series_;
    /**
     * Cached "<name>.count"/"<name>.mean" projection names, filled
     * lazily by visitStable() so per-interval sampling allocates no
     * strings (guarded by mutex_, hence mutable).
     */
    mutable std::map<std::string, std::pair<std::string, std::string>>
        histProjections_;
};

} // namespace pc

#endif // PC_OBS_METRICS_H
