#include "exp/result_cache.h"

namespace pc {

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

namespace {

JsonValue
seriesToJson(const TimeSeries &series)
{
    JsonArray points;
    points.reserve(series.size());
    for (const auto &p : series.points()) {
        points.push_back(JsonValue(JsonArray{
            JsonValue(static_cast<double>(p.t.toUsec())),
            JsonValue(p.value)}));
    }
    JsonObject obj;
    obj.emplace("name", series.name());
    obj.emplace("points", JsonValue(std::move(points)));
    return JsonValue(std::move(obj));
}

JsonValue
attributionToJson(const TailAttributionReport &report)
{
    JsonArray cuts;
    for (const auto &cut : report.cuts) {
        JsonObject c;
        c.emplace("q", cut.q);
        c.emplace("tail_count", static_cast<double>(cut.tailCount));
        c.emplace("threshold_s", cut.thresholdSec);
        c.emplace("mean_tail_s", cut.meanTailSec);
        c.emplace("truncated", cut.truncated);
        JsonArray stages;
        for (const auto &stage : cut.stages) {
            JsonObject s;
            s.emplace("queuing_s", stage.queuingSec);
            s.emplace("serving_s", stage.servingSec);
            stages.push_back(JsonValue(std::move(s)));
        }
        c.emplace("stages", JsonValue(std::move(stages)));
        cuts.push_back(JsonValue(std::move(c)));
    }
    JsonArray quantiles;
    for (const auto &q : report.spanQuantiles) {
        JsonObject s;
        s.emplace("queue_p95_s", q.queueP95Sec);
        s.emplace("queue_p99_s", q.queueP99Sec);
        s.emplace("serve_p95_s", q.serveP95Sec);
        s.emplace("serve_p99_s", q.serveP99Sec);
        quantiles.push_back(JsonValue(std::move(s)));
    }
    JsonObject obj;
    obj.emplace("queries", static_cast<double>(report.queries));
    obj.emplace("cuts", JsonValue(std::move(cuts)));
    obj.emplace("span_quantiles", JsonValue(std::move(quantiles)));
    return JsonValue(std::move(obj));
}

} // namespace

JsonValue
runResultToJson(const RunResult &result)
{
    JsonObject obj;
    obj.emplace("scenario", result.scenario);
    obj.emplace("submitted", static_cast<double>(result.submitted));
    obj.emplace("completed", static_cast<double>(result.completed));
    obj.emplace("avg_latency_s", result.avgLatencySec);
    obj.emplace("p99_latency_s", result.p99LatencySec);
    obj.emplace("max_latency_s", result.maxLatencySec);
    obj.emplace("avg_power_w", result.avgPowerWatts);
    obj.emplace("energy_j", result.energyJoules);

    JsonArray stages;
    for (const auto &b : result.stageBreakdown) {
        JsonObject stage;
        stage.emplace("avg_queuing_s", b.avgQueuingSec);
        stage.emplace("avg_serving_s", b.avgServingSec);
        stage.emplace("hops", static_cast<double>(b.hops));
        stages.push_back(JsonValue(std::move(stage)));
    }
    obj.emplace("stage_breakdown", JsonValue(std::move(stages)));

    obj.emplace("latency_series", seriesToJson(result.latencySeries));
    obj.emplace("power_series", seriesToJson(result.powerSeries));
    JsonArray counts;
    for (const auto &series : result.stageInstanceCounts)
        counts.push_back(seriesToJson(series));
    obj.emplace("stage_instance_counts", JsonValue(std::move(counts)));
    JsonObject freqs;
    for (const auto &[name, series] : result.instanceFrequencyGHz)
        freqs.emplace(name, seriesToJson(series));
    obj.emplace("instance_frequency_ghz", JsonValue(std::move(freqs)));
    // Only present when collected, so runs without --attribution keep
    // dumping the exact bytes the golden-trace test pins.
    if (result.tailAttribution.enabled) {
        obj.emplace("tail_attribution",
                    attributionToJson(result.tailAttribution));
    }
    // Same conditional-serialization contract for the audit summary.
    if (result.audit.collected) {
        JsonObject audit;
        audit.emplace("cluster_rebalances",
                      static_cast<double>(result.audit.clusterRebalances));
        audit.emplace("flips", static_cast<double>(result.audit.flips));
        audit.emplace("mape_freq_pct", result.audit.mapeFreqPct);
        audit.emplace("mape_inst_pct", result.audit.mapeInstPct);
        audit.emplace("mape_pct", result.audit.mapePct);
        audit.emplace("plans", static_cast<double>(result.audit.plans));
        audit.emplace("recycles",
                      static_cast<double>(result.audit.recycles));
        audit.emplace("scored",
                      static_cast<double>(result.audit.scored));
        audit.emplace("selects",
                      static_cast<double>(result.audit.selects));
        audit.emplace("misboosts",
                      static_cast<double>(result.audit.misboosts));
        audit.emplace("stale_skips",
                      static_cast<double>(result.audit.staleSkips));
        audit.emplace("withdraws",
                      static_cast<double>(result.audit.withdraws));
        obj.emplace("audit", JsonValue(std::move(audit)));
    }
    // ... and for the critical-path summary.
    if (result.critpath.collected) {
        JsonObject critpath;
        critpath.emplace("agree", static_cast<double>(
                                      result.critpath.agreeIntervals));
        critpath.emplace("agreement_rate",
                         result.critpath.agreementRate);
        critpath.emplace("boost_intervals", static_cast<double>(
                             result.critpath.boostIntervals));
        critpath.emplace("mean_shortening_pct",
                         result.critpath.meanShorteningPct);
        critpath.emplace("misboosts", static_cast<double>(
                                          result.critpath.misboosts));
        critpath.emplace("queries", static_cast<double>(
                                        result.critpath.queries));
        critpath.emplace("scored", static_cast<double>(
                             result.critpath.scoredIntervals));
        JsonArray shares;
        for (const double share : result.critpath.stageShare)
            shares.push_back(JsonValue(share));
        critpath.emplace("stage_share", JsonValue(std::move(shares)));
        obj.emplace("critpath", JsonValue(std::move(critpath)));
    }
    // ... and for the SLO burn-rate report.
    if (result.slo.collected)
        obj.emplace("slo", sloReportToJson(result.slo));
    return JsonValue(std::move(obj));
}

} // namespace pc
