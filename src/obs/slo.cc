#include "obs/slo.h"

#include <algorithm>

#include "common/logging.h"

namespace pc {

SloTracker::SloTracker(const SloConfig &config, double resolvedTargetSec)
    : targetSec_(resolvedTargetSec), objective_(config.objective)
{
    if (targetSec_ <= 0.0)
        fatal("SLO target must be positive (got %f)", targetSec_);
    if (objective_ <= 0.0 || objective_ >= 1.0)
        fatal("SLO objective must be in (0,1) (got %f)", objective_);
    if (config.fastWindowSec <= 0.0 || config.slowWindowSec <= 0.0)
        fatal("SLO windows must be positive (got %f / %f)",
              config.fastWindowSec, config.slowWindowSec);
    if (config.fastWindowSec > config.slowWindowSec)
        fatal("SLO fast window (%f s) exceeds the slow window (%f s)",
              config.fastWindowSec, config.slowWindowSec);
    fast_.span = SimTime::sec(config.fastWindowSec);
    slow_.span = SimTime::sec(config.slowWindowSec);
}

void
SloTracker::push(Window *w, SimTime t, bool violated) const
{
    w->events.emplace_back(t, violated);
    if (violated)
        ++w->bad;
    const SimTime cutoff = t - w->span;
    while (!w->events.empty() && w->events.front().first < cutoff) {
        if (w->events.front().second)
            --w->bad;
        w->events.pop_front();
    }
}

double
SloTracker::burnOf(const Window &w) const
{
    if (w.events.empty())
        return 0.0;
    const double badFraction = static_cast<double>(w.bad) /
        static_cast<double>(w.events.size());
    return badFraction / (1.0 - objective_);
}

void
SloTracker::observe(SimTime t, double latencySec)
{
    // Strictly greater: a completion exactly at the target meets it.
    const bool violated = latencySec > targetSec_;

    if (haveLast_ && lastViolated_)
        violationSeconds_ += (t - lastT_).toSec();
    haveLast_ = true;
    lastT_ = t;
    lastViolated_ = violated;

    ++total_;
    if (violated)
        ++violations_;
    push(&fast_, t, violated);
    push(&slow_, t, violated);
    maxFastBurn_ = std::max(maxFastBurn_, burnOf(fast_));
    maxSlowBurn_ = std::max(maxSlowBurn_, burnOf(slow_));
}

void
SloTracker::finish(SimTime end)
{
    if (finished_)
        return;
    finished_ = true;
    if (haveLast_ && lastViolated_ && end > lastT_)
        violationSeconds_ += (end - lastT_).toSec();
}

SloReport
SloTracker::report() const
{
    SloReport out;
    out.collected = true;
    out.targetSec = targetSec_;
    out.objective = objective_;
    out.total = total_;
    out.violations = violations_;
    out.violationSeconds = violationSeconds_;
    out.fastBurn = burnOf(fast_);
    out.slowBurn = burnOf(slow_);
    out.maxFastBurn = maxFastBurn_;
    out.maxSlowBurn = maxSlowBurn_;
    return out;
}

JsonValue
sloReportToJson(const SloReport &report)
{
    JsonObject o;
    o["fast_burn"] = JsonValue(report.fastBurn);
    o["max_fast_burn"] = JsonValue(report.maxFastBurn);
    o["max_slow_burn"] = JsonValue(report.maxSlowBurn);
    o["objective"] = JsonValue(report.objective);
    o["slow_burn"] = JsonValue(report.slowBurn);
    o["target_s"] = JsonValue(report.targetSec);
    o["total"] = JsonValue(static_cast<double>(report.total));
    o["violation_s"] = JsonValue(report.violationSeconds);
    o["violations"] =
        JsonValue(static_cast<double>(report.violations));
    return JsonValue(std::move(o));
}

SloReport
sloReportFromJson(const JsonValue &doc)
{
    SloReport report;
    report.collected = true;
    report.fastBurn = doc.numberOr("fast_burn", 0.0);
    report.maxFastBurn = doc.numberOr("max_fast_burn", 0.0);
    report.maxSlowBurn = doc.numberOr("max_slow_burn", 0.0);
    report.objective = doc.numberOr("objective", 0.99);
    report.slowBurn = doc.numberOr("slow_burn", 0.0);
    report.targetSec = doc.numberOr("target_s", 0.0);
    report.total =
        static_cast<std::uint64_t>(doc.numberOr("total", 0));
    report.violationSeconds = doc.numberOr("violation_s", 0.0);
    report.violations =
        static_cast<std::uint64_t>(doc.numberOr("violations", 0));
    return report;
}

} // namespace pc
