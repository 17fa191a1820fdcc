#include "obs/metrics.h"

#include <cstdio>
#include <type_traits>

#include "common/csv.h"
#include "common/logging.h"

namespace pc {

const ExactPercentile &
Histogram::samples() const
{
    if (!keepSamples_ && stats_.count() > 0)
        panic("histogram '%s' was read for quantiles or buckets but "
              "keeps no samples (its registry is never dumped)",
              name_.c_str());
    return exact_;
}

template <typename T>
T &
MetricsRegistry::findOrCreate(std::map<std::string, Named<T>> *metrics,
                              const std::string &name,
                              const std::string &unit, Volatility vol,
                              const char *kind)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = (*metrics)[name];
    if (!slot.metric) {
        if constexpr (std::is_same_v<T, Histogram>)
            slot.metric = std::make_unique<T>(name, keepHistogramSamples_);
        else
            slot.metric = std::make_unique<T>();
        slot.vol = vol;
        slot.unit = unit;
        return *slot.metric;
    }
    // Re-registration: a unit-less caller inherits the recorded unit;
    // a non-empty unit either upgrades a unit-less slot or must match.
    if (!unit.empty()) {
        if (slot.unit.empty())
            slot.unit = unit;
        else if (slot.unit != unit)
            fatal("%s '%s' registered with unit '%s' but was already "
                  "registered with unit '%s'",
                  kind, name.c_str(), unit.c_str(), slot.unit.c_str());
    }
    return *slot.metric;
}

Counter &
MetricsRegistry::counter(const std::string &name, Volatility vol)
{
    return findOrCreate(&counters_, name, "", vol, "counter");
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &unit,
                         Volatility vol)
{
    return findOrCreate(&counters_, name, unit, vol, "counter");
}

Gauge &
MetricsRegistry::gauge(const std::string &name, Volatility vol)
{
    return findOrCreate(&gauges_, name, "", vol, "gauge");
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &unit,
                       Volatility vol)
{
    return findOrCreate(&gauges_, name, unit, vol, "gauge");
}

Histogram &
MetricsRegistry::histogram(const std::string &name, Volatility vol)
{
    return findOrCreate(&histograms_, name, "", vol, "histogram");
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &unit, Volatility vol)
{
    return findOrCreate(&histograms_, name, unit, vol, "histogram");
}

std::string
MetricsRegistry::unitOf(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = counters_.find(name); it != counters_.end())
        return it->second.unit;
    if (const auto it = gauges_.find(name); it != gauges_.end())
        return it->second.unit;
    if (const auto it = histograms_.find(name); it != histograms_.end())
        return it->second.unit;
    return "";
}

void
MetricsRegistry::visitStable(
    const std::function<void(const std::string &, SampleKind,
                             const std::string &, double)> &fn) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, slot] : counters_)
        if (slot.vol == Volatility::Stable)
            fn(name, SampleKind::Counter, slot.unit,
               slot.metric->value());
    for (const auto &[name, slot] : gauges_)
        if (slot.vol == Volatility::Stable)
            fn(name, SampleKind::Gauge, slot.unit, slot.metric->value());
    // Histograms are sampled through O(1) projections only: quantiles
    // would re-sort the retained samples every control interval. The
    // projection names are cached so the per-interval visit allocates
    // nothing.
    for (const auto &[name, slot] : histograms_) {
        if (slot.vol != Volatility::Stable)
            continue;
        auto it = histProjections_.find(name);
        if (it == histProjections_.end())
            it = histProjections_
                     .emplace(name, std::make_pair(name + ".count",
                                                   name + ".mean"))
                     .first;
        fn(it->second.first, SampleKind::Counter, "",
           static_cast<double>(slot.metric->count()));
        fn(it->second.second, SampleKind::Gauge, slot.unit,
           slot.metric->mean());
    }
}

void
MetricsRegistry::snapshot(
    SimTime now,
    std::initializer_list<std::pair<const char *, double>> extra)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, value] : extra) {
        auto [it, inserted] = series_.try_emplace(name, TimeSeries(name));
        it->second.append(now, value);
    }
    for (const auto &[name, slot] : counters_) {
        if (slot.vol != Volatility::Stable)
            continue;
        auto [it, inserted] = series_.try_emplace(name, TimeSeries(name));
        it->second.append(now, slot.metric->value());
    }
    for (const auto &[name, slot] : gauges_) {
        if (slot.vol != Volatility::Stable)
            continue;
        auto [it, inserted] = series_.try_emplace(name, TimeSeries(name));
        it->second.append(now, slot.metric->value());
    }
}

namespace {

/** "le" label of a bucket boundary ("0.001" ... "100", "+inf"). */
std::string
bucketLabel(std::size_t i)
{
    if (i >= kNumHistogramBuckets)
        return "+inf";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%g", kHistogramBucketBounds[i]);
    return buf;
}

JsonValue
histogramJson(const Histogram &h)
{
    JsonObject o;
    o["count"] = JsonValue(static_cast<double>(h.count()));
    o["mean"] = JsonValue(h.mean());
    o["min"] = JsonValue(h.min());
    o["max"] = JsonValue(h.max());
    o["p50"] = JsonValue(h.count() ? h.quantile(0.5) : 0.0);
    o["p90"] = JsonValue(h.count() ? h.quantile(0.9) : 0.0);
    o["p99"] = JsonValue(h.count() ? h.p99() : 0.0);
    o["sum"] = JsonValue(h.sum());
    // Cumulative log-decade buckets; the +inf bucket equals count, so
    // the serialization is self-checking (tools/trace_validate.cc).
    JsonObject buckets;
    for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
        buckets[bucketLabel(i)] = JsonValue(static_cast<double>(
            h.countAtOrBelow(kHistogramBucketBounds[i])));
    }
    buckets["+inf"] = JsonValue(static_cast<double>(h.count()));
    o["buckets"] = JsonValue(std::move(buckets));
    return JsonValue(std::move(o));
}

} // namespace

JsonValue
MetricsRegistry::toJson(bool includeVolatile) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonObject counters;
    for (const auto &[name, slot] : counters_)
        if (includeVolatile || slot.vol == Volatility::Stable)
            counters[name] = JsonValue(slot.metric->value());
    JsonObject gauges;
    for (const auto &[name, slot] : gauges_)
        if (includeVolatile || slot.vol == Volatility::Stable)
            gauges[name] = JsonValue(slot.metric->value());
    JsonObject histograms;
    for (const auto &[name, slot] : histograms_)
        if (includeVolatile || slot.vol == Volatility::Stable)
            histograms[name] = histogramJson(*slot.metric);
    JsonObject series;
    for (const auto &[name, ts] : series_) {
        JsonArray points;
        for (const auto &p : ts.points()) {
            points.push_back(JsonValue(JsonArray{
                JsonValue(static_cast<double>(p.t.toUsec())),
                JsonValue(p.value)}));
        }
        series[name] = JsonValue(std::move(points));
    }

    JsonObject doc;
    doc["counters"] = JsonValue(std::move(counters));
    doc["gauges"] = JsonValue(std::move(gauges));
    doc["histograms"] = JsonValue(std::move(histograms));
    doc["series"] = JsonValue(std::move(series));
    return JsonValue(std::move(doc));
}

void
MetricsRegistry::writeJson(std::ostream &out, const std::string &scenario,
                           bool includeVolatile) const
{
    JsonValue body = toJson(includeVolatile);
    JsonObject doc = body.asObject();
    if (!scenario.empty())
        doc["scenario"] = JsonValue(scenario);
    out << JsonValue(std::move(doc)).dump() << '\n';
}

void
MetricsRegistry::writeCsv(std::ostream &out, bool includeVolatile) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    CsvWriter csv(out);
    csv.row({"name", "kind", "field", "value"});
    for (const auto &[name, slot] : counters_)
        if (includeVolatile || slot.vol == Volatility::Stable)
            csv.row({name, "counter", "value",
                     std::to_string(slot.metric->value())});
    for (const auto &[name, slot] : gauges_)
        if (includeVolatile || slot.vol == Volatility::Stable)
            csv.row({name, "gauge", "value",
                     std::to_string(slot.metric->value())});
    for (const auto &[name, slot] : histograms_) {
        if (!includeVolatile && slot.vol != Volatility::Stable)
            continue;
        const Histogram &h = *slot.metric;
        csv.row({name, "histogram", "count",
                 std::to_string(h.count())});
        csv.row({name, "histogram", "mean", std::to_string(h.mean())});
        csv.row({name, "histogram", "min", std::to_string(h.min())});
        csv.row({name, "histogram", "max", std::to_string(h.max())});
        csv.row({name, "histogram", "p50",
                 std::to_string(h.count() ? h.quantile(0.5) : 0.0)});
        csv.row({name, "histogram", "p90",
                 std::to_string(h.count() ? h.quantile(0.9) : 0.0)});
        csv.row({name, "histogram", "p99",
                 std::to_string(h.count() ? h.p99() : 0.0)});
        csv.row({name, "histogram", "sum", std::to_string(h.sum())});
        for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
            csv.row({name, "histogram", "le_" + bucketLabel(i),
                     std::to_string(h.countAtOrBelow(
                         kHistogramBucketBounds[i]))});
        }
        csv.row({name, "histogram", "le_+inf",
                 std::to_string(h.count())});
    }
}

bool
MetricsRegistry::empty() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    series_.clear();
    histProjections_.clear();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    static std::once_flag hook;
    std::call_once(hook, [] {
        // Satisfies "warnings are observable": every logWarn()/
        // logError() call lands in a process-wide error counter, even
        // when the emission itself is suppressed by the log level.
        Counter &warns = registry.counter("log.warnings_total");
        Counter &errors = registry.counter("log.errors_total");
        Logger::instance().setLevelSink([&warns, &errors](LogLevel lvl) {
            if (lvl == LogLevel::Warn)
                warns.add();
            else if (lvl >= LogLevel::Error)
                errors.add();
        });
    });
    return registry;
}

} // namespace pc
