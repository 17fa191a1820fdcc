#include "obs/audit.h"

#include <cmath>

namespace pc {

const char *
toString(AuditBoostKind kind)
{
    switch (kind) {
      case AuditBoostKind::None: return "none";
      case AuditBoostKind::Frequency: return "frequency";
      case AuditBoostKind::Instance: return "instance";
    }
    return "?";
}

const char *
toString(AuditDecisionKind kind)
{
    switch (kind) {
      case AuditDecisionKind::Select: return "select";
      case AuditDecisionKind::Recycle: return "recycle";
      case AuditDecisionKind::Withdraw: return "withdraw";
      case AuditDecisionKind::StaleSkip: return "stale_skip";
      case AuditDecisionKind::FastCapPlan: return "fastcap_plan";
      case AuditDecisionKind::CuttleSysPlan: return "cuttlesys_plan";
      case AuditDecisionKind::ObsAlert: return "obs.alert";
      case AuditDecisionKind::Misboost: return "misboost";
      case AuditDecisionKind::ClusterRebalance: return "cluster_rebalance";
      case AuditDecisionKind::Count: break;
    }
    return "?";
}

void
AuditLog::beginInterval(SimTime now, std::uint64_t interval)
{
    if (!enabled_)
        return;
    now_ = now;
    interval_ = interval;
}

std::int64_t
AuditLog::localId(std::int64_t instanceId)
{
    if (instanceId < 0)
        return instanceId;
    const auto it = localIds_.find(instanceId);
    if (it != localIds_.end())
        return it->second;
    const auto local = static_cast<std::int64_t>(localIds_.size() + 1);
    localIds_.emplace(instanceId, local);
    return local;
}

void
AuditLog::recordSelect(AuditRecord rec)
{
    if (!enabled_)
        return;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::Select;
    rec.targetInstance = localId(rec.targetInstance);
    for (AuditCandidate &cand : rec.candidates)
        cand.instanceId = localId(cand.instanceId);
    if (rec.chosen != AuditBoostKind::None) {
        const auto it = lastChoice_.find(rec.stageIndex);
        rec.flip = it != lastChoice_.end() && it->second != rec.chosen;
        lastChoice_[rec.stageIndex] = rec.chosen;
    }
    records_.push_back(std::move(rec));
}

void
AuditLog::recordRecycle(double neededWatts, double recycledWatts,
                        std::uint64_t donorSteps)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::Recycle;
    rec.neededWatts = neededWatts;
    rec.recycledWatts = recycledWatts;
    rec.donorSteps = donorSteps;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordWithdraw(std::int64_t instanceId, int stageIndex,
                         double utilization, double threshold)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::Withdraw;
    rec.targetInstance = localId(instanceId);
    rec.stageIndex = stageIndex;
    rec.utilization = utilization;
    rec.utilizationThreshold = threshold;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordStaleSkip(std::int64_t instanceId, int stageIndex,
                          double ageSec, double staleWindowSec)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::StaleSkip;
    rec.targetInstance = localId(instanceId);
    rec.stageIndex = stageIndex;
    rec.ageSec = ageSec;
    rec.staleWindowSec = staleWindowSec;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordPlan(AuditDecisionKind kind, AuditRecord rec)
{
    if (!enabled_)
        return;
    if (kind != AuditDecisionKind::FastCapPlan &&
        kind != AuditDecisionKind::CuttleSysPlan)
        return;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = kind;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordAlert(const std::string &series, double value,
                      double mean, double sigma, double z,
                      double threshold, int direction)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::ObsAlert;
    rec.alertSeries = series;
    rec.alertValue = value;
    rec.alertMean = mean;
    rec.alertSigma = sigma;
    rec.alertZ = z;
    rec.alertThreshold = threshold;
    rec.alertDirection = direction;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordMisboost(int boostedStage, int dominantStage,
                         double dominantShare, double boostedShare)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::Misboost;
    rec.misboostBoostedStage = boostedStage;
    rec.misboostDominantStage = dominantStage;
    rec.misboostDominantShare = dominantShare;
    rec.misboostBoostedShare = boostedShare;
    records_.push_back(std::move(rec));
}

void
AuditLog::recordClusterRebalance(int node, std::uint64_t round,
                                 double capBeforeWatts,
                                 double capAfterWatts, double demand,
                                 double reportAgeSec, bool frozen,
                                 bool granted)
{
    if (!enabled_)
        return;
    AuditRecord rec;
    rec.seq = records_.size();
    rec.t = now_;
    rec.interval = interval_;
    rec.kind = AuditDecisionKind::ClusterRebalance;
    rec.clusterNode = node;
    rec.clusterRound = round;
    rec.clusterCapBeforeWatts = capBeforeWatts;
    rec.clusterCapAfterWatts = capAfterWatts;
    rec.clusterDemand = demand;
    rec.clusterReportAgeSec = reportAgeSec;
    rec.clusterFrozen = frozen;
    rec.clusterGranted = granted;
    records_.push_back(std::move(rec));
}

void
AuditLog::noteActuation(AuditBoostKind kind)
{
    if (!enabled_ || kind == AuditBoostKind::None)
        return;
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->kind != AuditDecisionKind::Select)
            continue;
        if (it->chosen != kind || it->actuated)
            continue;
        it->actuated = true;
        return;
    }
}

void
AuditLog::scorePending(SimTime now,
                       const std::vector<double> &stageRealizedSec)
{
    if (!enabled_)
        return;
    for (auto &rec : records_) {
        if (rec.kind != AuditDecisionKind::Select || rec.scored)
            continue;
        if (rec.chosen == AuditBoostKind::None)
            continue;
        if (rec.t >= now)
            continue;
        if (rec.stageIndex < 0 ||
            static_cast<std::size_t>(rec.stageIndex) >=
                stageRealizedSec.size())
            continue;
        const double realized = stageRealizedSec[rec.stageIndex];
        // No realized delay yet (stage window empty) — retry next time.
        if (realized <= 0.0)
            continue;
        rec.scored = true;
        rec.scoredAt = now;
        rec.predictedSec = rec.chosen == AuditBoostKind::Instance
            ? rec.tInstSec
            : rec.tFreqSec;
        rec.realizedSec = realized;
        rec.absPctErr =
            std::abs(rec.predictedSec - realized) / realized * 100.0;
    }
}

double
AuditLog::mapePct(AuditBoostKind kind) const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &rec : records_) {
        if (rec.kind != AuditDecisionKind::Select || !rec.scored)
            continue;
        if (kind != AuditBoostKind::None && rec.chosen != kind)
            continue;
        sum += rec.absPctErr;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
AuditLog::flips() const
{
    std::uint64_t n = 0;
    for (const auto &rec : records_)
        if (rec.flip)
            ++n;
    return n;
}

namespace {

JsonValue
candidateToJson(const AuditCandidate &c)
{
    JsonObject o;
    o["avg_queuing_s"] = JsonValue(c.avgQueuingSec);
    o["avg_serving_s"] = JsonValue(c.avgServingSec);
    o["instance"] = JsonValue(static_cast<double>(c.instanceId));
    o["level"] = JsonValue(c.level);
    o["metric"] = JsonValue(c.metric);
    o["queue_len"] = JsonValue(static_cast<double>(c.queueLength));
    o["stage"] = JsonValue(c.stageIndex);
    return JsonValue(std::move(o));
}

JsonValue
recordToJson(const AuditRecord &rec)
{
    JsonObject o;
    o["interval"] = JsonValue(static_cast<double>(rec.interval));
    o["kind"] = JsonValue(toString(rec.kind));
    o["seq"] = JsonValue(static_cast<double>(rec.seq));
    o["t_s"] = JsonValue(rec.t.toSec());
    switch (rec.kind) {
      case AuditDecisionKind::Select: {
        o["actuated"] = JsonValue(rec.actuated);
        o["alpha_lh"] = JsonValue(rec.alphaLh);
        JsonArray cands;
        for (const auto &c : rec.candidates)
            cands.push_back(candidateToJson(c));
        o["candidates"] = JsonValue(std::move(cands));
        o["chosen"] = JsonValue(toString(rec.chosen));
        o["flip"] = JsonValue(rec.flip);
        o["from_level"] = JsonValue(rec.fromLevel);
        o["headroom_after_w"] = JsonValue(rec.headroomAfterWatts);
        o["headroom_before_w"] = JsonValue(rec.headroomBeforeWatts);
        o["recycled_w"] = JsonValue(rec.recycledWatts);
        o["recycle_steps"] = JsonValue(static_cast<double>(rec.donorSteps));
        o["stage"] = JsonValue(rec.stageIndex);
        o["t_freq_s"] = JsonValue(rec.tFreqSec);
        o["t_inst_s"] = JsonValue(rec.tInstSec);
        o["target"] = JsonValue(static_cast<double>(rec.targetInstance));
        o["to_level"] = JsonValue(rec.toLevel);
        if (rec.scored) {
            JsonObject s;
            s["abs_pct_err"] = JsonValue(rec.absPctErr);
            s["predicted_s"] = JsonValue(rec.predictedSec);
            s["realized_s"] = JsonValue(rec.realizedSec);
            s["scored_at_s"] = JsonValue(rec.scoredAt.toSec());
            o["score"] = JsonValue(std::move(s));
        }
        break;
      }
      case AuditDecisionKind::Recycle:
        o["needed_w"] = JsonValue(rec.neededWatts);
        o["recycled_w"] = JsonValue(rec.recycledWatts);
        o["recycle_steps"] = JsonValue(static_cast<double>(rec.donorSteps));
        break;
      case AuditDecisionKind::Withdraw:
        o["stage"] = JsonValue(rec.stageIndex);
        o["target"] = JsonValue(static_cast<double>(rec.targetInstance));
        o["utilization"] = JsonValue(rec.utilization);
        o["utilization_threshold"] =
            JsonValue(rec.utilizationThreshold);
        break;
        break;
      case AuditDecisionKind::StaleSkip:
        o["age_s"] = JsonValue(rec.ageSec);
        o["stage"] = JsonValue(rec.stageIndex);
        o["stale_window_s"] = JsonValue(rec.staleWindowSec);
        o["target"] = JsonValue(static_cast<double>(rec.targetInstance));
        break;
      case AuditDecisionKind::FastCapPlan:
      case AuditDecisionKind::CuttleSysPlan:
        o["explore"] = JsonValue(rec.planExplore);
        o["headroom_after_w"] = JsonValue(rec.headroomAfterWatts);
        o["headroom_before_w"] = JsonValue(rec.headroomBeforeWatts);
        o["launches"] = JsonValue(static_cast<double>(rec.planLaunches));
        o["objective_s"] = JsonValue(rec.planObjectiveSec);
        o["planned_w"] = JsonValue(rec.planPlannedWatts);
        o["steps_down"] =
            JsonValue(static_cast<double>(rec.planStepsDown));
        o["steps_up"] = JsonValue(static_cast<double>(rec.planStepsUp));
        o["withdraws"] =
            JsonValue(static_cast<double>(rec.planWithdraws));
        break;
      case AuditDecisionKind::ObsAlert:
        o["direction"] = JsonValue(rec.alertDirection);
        o["mean"] = JsonValue(rec.alertMean);
        o["series"] = JsonValue(rec.alertSeries);
        o["sigma"] = JsonValue(rec.alertSigma);
        o["threshold"] = JsonValue(rec.alertThreshold);
        o["value"] = JsonValue(rec.alertValue);
        o["z"] = JsonValue(rec.alertZ);
        break;
      case AuditDecisionKind::Misboost:
        o["boosted_share"] = JsonValue(rec.misboostBoostedShare);
        o["boosted_stage"] = JsonValue(rec.misboostBoostedStage);
        o["dominant_share"] = JsonValue(rec.misboostDominantShare);
        o["dominant_stage"] = JsonValue(rec.misboostDominantStage);
        break;
      case AuditDecisionKind::ClusterRebalance:
        o["cap_after_w"] = JsonValue(rec.clusterCapAfterWatts);
        o["cap_before_w"] = JsonValue(rec.clusterCapBeforeWatts);
        o["demand"] = JsonValue(rec.clusterDemand);
        o["frozen"] = JsonValue(rec.clusterFrozen);
        o["granted"] = JsonValue(rec.clusterGranted);
        o["node"] = JsonValue(rec.clusterNode);
        o["report_age_s"] = JsonValue(rec.clusterReportAgeSec);
        o["round"] = JsonValue(static_cast<double>(rec.clusterRound));
        break;
      case AuditDecisionKind::Count:
        break;
    }
    return JsonValue(std::move(o));
}

} // namespace

JsonValue
AuditLog::toJson() const
{
    JsonArray records;
    std::uint64_t counts[kNumAuditDecisionKinds] = {};
    std::uint64_t chosen[3] = {0, 0, 0};
    std::uint64_t actuated = 0;
    std::uint64_t scoredByKind[3] = {0, 0, 0};
    std::uint64_t pending = 0;
    for (const auto &rec : records_) {
        records.push_back(recordToJson(rec));
        ++counts[static_cast<int>(rec.kind)];
        if (rec.kind != AuditDecisionKind::Select)
            continue;
        ++chosen[static_cast<int>(rec.chosen)];
        if (rec.actuated)
            ++actuated;
        if (rec.scored)
            ++scoredByKind[static_cast<int>(rec.chosen)];
        else if (rec.chosen != AuditBoostKind::None)
            ++pending;
    }

    const auto count = [](std::uint64_t n) {
        return JsonValue(static_cast<double>(n));
    };

    JsonObject prediction;
    for (const AuditBoostKind kind :
         {AuditBoostKind::Frequency, AuditBoostKind::Instance}) {
        JsonObject p;
        p["mape_pct"] = JsonValue(mapePct(kind));
        p["scored"] = count(scoredByKind[static_cast<int>(kind)]);
        prediction[toString(kind)] = JsonValue(std::move(p));
    }
    JsonObject overall;
    overall["mape_pct"] = JsonValue(mapePct());
    overall["scored"] = count(scoredByKind[1] + scoredByKind[2]);
    prediction["overall"] = JsonValue(std::move(overall));
    prediction["unscored"] = count(pending);

    JsonObject select;
    select["actuated"] = count(actuated);
    select["flips"] = count(flips());
    for (const AuditBoostKind kind :
         {AuditBoostKind::None, AuditBoostKind::Frequency,
          AuditBoostKind::Instance})
        select[toString(kind)] = count(chosen[static_cast<int>(kind)]);

    JsonObject decisions;
    decisions["cluster_rebalance"] = count(
        counts[static_cast<int>(AuditDecisionKind::ClusterRebalance)]);
    decisions["cuttlesys_plan"] = count(
        counts[static_cast<int>(AuditDecisionKind::CuttleSysPlan)]);
    decisions["fastcap_plan"] = count(
        counts[static_cast<int>(AuditDecisionKind::FastCapPlan)]);
    decisions["misboost"] =
        count(counts[static_cast<int>(AuditDecisionKind::Misboost)]);
    decisions["obs_alert"] =
        count(counts[static_cast<int>(AuditDecisionKind::ObsAlert)]);
    decisions["recycle"] =
        count(counts[static_cast<int>(AuditDecisionKind::Recycle)]);
    decisions["select"] =
        count(counts[static_cast<int>(AuditDecisionKind::Select)]);
    decisions["stale_skip"] =
        count(counts[static_cast<int>(AuditDecisionKind::StaleSkip)]);
    decisions["withdraw"] =
        count(counts[static_cast<int>(AuditDecisionKind::Withdraw)]);

    JsonObject summary;
    summary["decisions"] = JsonValue(std::move(decisions));
    summary["intervals"] = count(interval_);
    summary["prediction"] = JsonValue(std::move(prediction));
    summary["select"] = JsonValue(std::move(select));

    JsonObject root;
    root["records"] = JsonValue(std::move(records));
    root["summary"] = JsonValue(std::move(summary));
    return JsonValue(std::move(root));
}

void
AuditLog::writeJson(std::ostream &out) const
{
    out << toJson().dump() << "\n";
}

} // namespace pc
