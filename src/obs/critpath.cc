#include "obs/critpath.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "app/query.h"
#include "common/logging.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace pc {

CritPathBreakdown
critPathOf(const Query &query)
{
    CritPathBreakdown out;
    if (query.completed())
        out.endToEndSec = query.endToEnd().toSec();

    // Per stage: the critical hop is the completing (non-wasted) hop
    // that finished last — through a fan-out that is the slowest shard,
    // after a crash it is the adopting peer's re-execution. Wasted hops
    // only contribute their lost service time.
    struct StageAcc
    {
        std::optional<HopRecord> crit;
        double wastedSec = 0.0;
        SimTime lastWastedFinished;
        bool hasWasted = false;
    };
    std::map<int, StageAcc> acc;
    for (std::size_t i = 0; i < query.numHops(); ++i) {
        const HopRecord hop = query.hop(i);
        StageAcc &a = acc[hop.stageIndex];
        if (hop.wasted) {
            a.wastedSec += hop.serving().toSec();
            if (!a.hasWasted || a.lastWastedFinished < hop.finished)
                a.lastWastedFinished = hop.finished;
            a.hasWasted = true;
        } else if (!a.crit || a.crit->finished < hop.finished) {
            a.crit = hop;
        }
    }

    // Path order = completion order of the critical hops (stage index
    // breaks the — simultaneous-finish — ties deterministically).
    std::vector<std::pair<SimTime, int>> order;
    order.reserve(acc.size());
    for (const auto &[stage, a] : acc)
        if (a.crit)
            order.emplace_back(a.crit->finished, stage);
    std::sort(order.begin(), order.end());

    for (const auto &[finished, stage] : order) {
        const StageAcc &a = acc[stage];
        const HopRecord &crit = *a.crit;
        const double queuing = crit.queuing().toSec();

        CritPathBreakdown::StageSegment seg;
        seg.stage = stage;
        seg.serveSec = crit.serving().toSec();
        seg.shardCount = crit.shardCount;
        seg.boosted = crit.boosted;
        seg.servedMhz = crit.servedMhz;
        // The completing hop keeps the query's original enqueue stamp,
        // so its queuing span already contains any crash-aborted
        // service and the re-dispatch wait; carve those out so the
        // segments sum exactly to queuing + serving.
        seg.wastedSec = std::min(a.wastedSec, queuing);
        if (a.hasWasted) {
            const double sinceCrash =
                (crit.started - a.lastWastedFinished).toSec();
            seg.redispatchSec = std::clamp(
                sinceCrash, 0.0, queuing - seg.wastedSec);
        }
        seg.queueSec = queuing - seg.wastedSec - seg.redispatchSec;

        if (!out.signature.empty())
            out.signature += '>';
        out.signature += 's' + std::to_string(stage);
        if (seg.shardCount > 0)
            out.signature += 'x' + std::to_string(seg.shardCount);
        if (a.hasWasted)
            out.signature += '!';
        out.segments.push_back(seg);
    }

    double best = -1.0;
    for (const auto &seg : out.segments) {
        if (seg.totalSec() > best ||
            (seg.totalSec() == best && seg.stage < out.dominantStage)) {
            best = seg.totalSec();
            out.dominantStage = seg.stage;
        }
    }
    return out;
}

CritPathCollector::CritPathCollector(AuditLog *audit,
                                     MetricsRegistry *metrics,
                                     bool keepShareSamples)
    : audit_(audit), metrics_(metrics), keepShareSamples_(keepShareSamples)
{
    if (metrics_) {
        dominantGauge_ = &metrics_->gauge("critpath.dominant_stage");
        agreementGauge_ = &metrics_->gauge("critpath.agreement_rate");
        meanCritGauge_ =
            &metrics_->gauge("critpath.mean_crit_s", "seconds");
    }
}

void
CritPathCollector::observeQuery(SimTime, const Query &query,
                                bool afterWarmup)
{
    const CritPathBreakdown bd = critPathOf(query);
    if (bd.segments.empty())
        return;

    double total = 0.0;
    for (const auto &seg : bd.segments)
        total += seg.totalSec();

    // Interval scoring sees every completion — the controller acted on
    // warmup queries too.
    ++intervalQueries_;
    intervalCritSec_ += total;
    for (const auto &seg : bd.segments)
        intervalStageSec_[seg.stage] += seg.totalSec();

    if (!afterWarmup)
        return;
    ++profiled_;
    for (const auto &seg : bd.segments) {
        StageProfile &p = stages_[seg.stage];
        const double share = total > 0.0 ? seg.totalSec() / total : 0.0;
        ++p.paths;
        if (keepShareSamples_)
            p.share.add(share);
        p.shareSum += share;
        p.queueSec += seg.queueSec;
        p.serveSec += seg.serveSec;
        p.wastedSec += seg.wastedSec;
        p.redispatchSec += seg.redispatchSec;
        if (seg.boosted)
            ++p.boostedHops;
        if (seg.servedMhz > 0) {
            p.mhzSum += seg.servedMhz;
            ++p.mhzCount;
        }
    }
    ++stages_[bd.dominantStage].dominant;
    ++signatures_[bd.signature];
}

void
CritPathCollector::onControlInterval(SimTime now,
                                     const std::vector<int> &boostedStages)
{
    ++intervals_;

    IntervalRecord rec;
    rec.interval = intervals_;
    rec.t = now;
    rec.queries = intervalQueries_;
    rec.boostedStages = boostedStages;
    std::sort(rec.boostedStages.begin(), rec.boostedStages.end());
    rec.boostedStages.erase(std::unique(rec.boostedStages.begin(),
                                        rec.boostedStages.end()),
                            rec.boostedStages.end());
    const bool hasBoost = !rec.boostedStages.empty();
    if (hasBoost)
        ++boostIntervals_;

    double meanCrit = 0.0;
    if (intervalQueries_ > 0) {
        meanCrit =
            intervalCritSec_ / static_cast<double>(intervalQueries_);
        rec.meanCritSec = meanCrit;
        // Ascending map order + strict inequality break dominance ties
        // toward the lowest stage index.
        double domSec = 0.0;
        for (const auto &[stage, sec] : intervalStageSec_) {
            if (sec > domSec) {
                domSec = sec;
                rec.dominantStage = stage;
            }
        }
        if (intervalCritSec_ > 0.0)
            rec.dominantShare = domSec / intervalCritSec_;
        ++scored_;
        rec.agree = hasBoost &&
            std::binary_search(rec.boostedStages.begin(),
                               rec.boostedStages.end(),
                               rec.dominantStage);
        if (rec.agree) {
            ++agree_;
        } else if (hasBoost) {
            rec.misboost = true;
            ++misboosts_;
            double boostedShare = 0.0;
            const auto it =
                intervalStageSec_.find(rec.boostedStages.front());
            if (it != intervalStageSec_.end() && intervalCritSec_ > 0.0)
                boostedShare = it->second / intervalCritSec_;
            if (audit_)
                audit_->recordMisboost(rec.boostedStages.front(),
                                       rec.dominantStage,
                                       rec.dominantShare, boostedShare);
        }
    }

    // Realized shortening: the mean critical path of the interval
    // after a boosted one, relative to the boosted interval itself.
    if (pendingBoostMeanSec_ > 0.0) {
        if (meanCrit > 0.0) {
            shorteningSumPct_ += (pendingBoostMeanSec_ - meanCrit) /
                pendingBoostMeanSec_ * 100.0;
            ++shorteningCount_;
        }
        pendingBoostMeanSec_ = 0.0;
    }
    if (hasBoost && meanCrit > 0.0)
        pendingBoostMeanSec_ = meanCrit;

    if (dominantGauge_)
        dominantGauge_->set(rec.dominantStage);
    if (agreementGauge_)
        agreementGauge_->set(agreementRate());
    if (meanCritGauge_)
        meanCritGauge_->set(meanCrit);

    intervalLog_.push_back(std::move(rec));
    intervalStageSec_.clear();
    intervalQueries_ = 0;
    intervalCritSec_ = 0.0;
}

double
CritPathCollector::agreementRate() const
{
    return scored_ ? static_cast<double>(agree_) /
            static_cast<double>(scored_)
                   : 0.0;
}

double
CritPathCollector::meanShorteningPct() const
{
    return shorteningCount_
        ? shorteningSumPct_ / static_cast<double>(shorteningCount_)
        : 0.0;
}

CritPathCollector::StageShareTotals
CritPathCollector::stageShareTotals() const
{
    StageShareTotals out;
    for (const auto &[stage, p] : stages_) {
        if (stage < 0)
            continue;
        out.shareSum.resize(static_cast<std::size_t>(stage) + 1, 0.0);
        out.paths.resize(static_cast<std::size_t>(stage) + 1, 0);
        out.shareSum[static_cast<std::size_t>(stage)] = p.shareSum;
        out.paths[static_cast<std::size_t>(stage)] = p.paths;
    }
    return out;
}

JsonValue
CritPathCollector::toJson(const std::string &scenario) const
{
    const auto count = [](std::uint64_t n) {
        return JsonValue(static_cast<double>(n));
    };

    if (!keepShareSamples_ && profiled_ > 0)
        panic("critical-path profile serialized but its share samples "
              "were not kept (the collector was built collect-only)");

    JsonObject root;
    root["schema"] = JsonValue("powerchief-critpath-v1");
    if (!scenario.empty())
        root["scenario"] = JsonValue(scenario);
    root["queries"] = count(profiled_);

    JsonArray stages;
    for (const auto &[stage, p] : stages_) {
        JsonObject o;
        o["boosted_hops"] = count(p.boostedHops);
        o["dominant"] = count(p.dominant);
        o["mean_served_mhz"] = JsonValue(
            p.mhzCount ? p.mhzSum / static_cast<double>(p.mhzCount)
                       : 0.0);
        o["paths"] = count(p.paths);
        o["queue_s"] = JsonValue(p.queueSec);
        o["redispatch_s"] = JsonValue(p.redispatchSec);
        o["serve_s"] = JsonValue(p.serveSec);
        o["share_mean"] = JsonValue(
            p.paths ? p.shareSum / static_cast<double>(p.paths) : 0.0);
        o["share_p50"] =
            JsonValue(p.share.empty() ? 0.0 : p.share.quantile(0.5));
        o["share_p95"] =
            JsonValue(p.share.empty() ? 0.0 : p.share.quantile(0.95));
        o["share_p99"] =
            JsonValue(p.share.empty() ? 0.0 : p.share.quantile(0.99));
        o["stage"] = JsonValue(stage);
        o["wasted_s"] = JsonValue(p.wastedSec);
        stages.push_back(JsonValue(std::move(o)));
    }
    root["stages"] = JsonValue(std::move(stages));

    // Top-K path signatures, most frequent first (name breaks ties).
    constexpr std::size_t kTopSignatures = 8;
    std::vector<std::pair<std::string, std::uint64_t>> sigs(
        signatures_.begin(), signatures_.end());
    std::sort(sigs.begin(), sigs.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (sigs.size() > kTopSignatures)
        sigs.resize(kTopSignatures);
    JsonArray sigArr;
    for (const auto &[sig, n] : sigs) {
        JsonObject o;
        o["count"] = count(n);
        o["signature"] = JsonValue(sig);
        sigArr.push_back(JsonValue(std::move(o)));
    }
    root["signatures"] = JsonValue(std::move(sigArr));

    JsonObject controller;
    controller["agree"] = count(agree_);
    controller["agreement_rate"] = JsonValue(agreementRate());
    controller["boost_intervals"] = count(boostIntervals_);
    controller["intervals"] = count(intervals_);
    controller["mean_shortening_pct"] = JsonValue(meanShorteningPct());
    controller["misboosts"] = count(misboosts_);
    controller["scored"] = count(scored_);
    root["controller"] = JsonValue(std::move(controller));

    JsonArray intervals;
    for (const IntervalRecord &rec : intervalLog_) {
        JsonObject o;
        o["agree"] = JsonValue(rec.agree);
        JsonArray boosted;
        for (const int stage : rec.boostedStages)
            boosted.push_back(JsonValue(stage));
        o["boosted"] = JsonValue(std::move(boosted));
        o["dominant_share"] = JsonValue(rec.dominantShare);
        o["dominant_stage"] = JsonValue(rec.dominantStage);
        o["interval"] = count(rec.interval);
        o["mean_crit_s"] = JsonValue(rec.meanCritSec);
        o["misboost"] = JsonValue(rec.misboost);
        o["queries"] = count(rec.queries);
        o["t_s"] = JsonValue(rec.t.toSec());
        intervals.push_back(JsonValue(std::move(o)));
    }
    root["intervals"] = JsonValue(std::move(intervals));
    return JsonValue(std::move(root));
}

void
CritPathCollector::writeJson(std::ostream &out,
                             const std::string &scenario) const
{
    out << toJson(scenario).dump() << "\n";
}

} // namespace pc
