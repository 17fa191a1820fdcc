#include "faults/fault_plan.h"

#include <fstream>
#include <sstream>

namespace pc {

const BusFaultRule *
FaultPlan::ruleFor(const std::string &endpointName) const
{
    for (const auto &rule : bus)
        if (matches(rule.endpoint, endpointName))
            return &rule;
    return nullptr;
}

bool
FaultPlan::matches(const std::string &pattern, const std::string &name)
{
    if (pattern == "*")
        return true;
    if (!pattern.empty() && pattern.back() == '*') {
        const std::size_t n = pattern.size() - 1;
        return name.compare(0, n, pattern, 0, n) == 0;
    }
    return pattern == name;
}

bool
FaultPlan::anyEffect() const
{
    if (!crashes.empty())
        return true;
    for (const auto &rule : bus)
        if (rule.dropRate > 0.0 || rule.duplicateRate > 0.0 ||
            rule.reorderRate > 0.0)
            return true;
    return telemetry.truncateRate > 0.0 || telemetry.staleRate > 0.0 ||
        telemetry.raplFailRate > 0.0 || telemetry.perfCtlFailRate > 0.0;
}

namespace {

bool
rateField(const JsonValue &obj, const char *key, double *out,
          std::string *error)
{
    const double v = obj.numberOr(key, *out);
    if (v < 0.0 || v > 1.0) {
        *error = std::string("fault rate '") + key +
            "' must be in [0, 1]";
        return false;
    }
    *out = v;
    return true;
}

} // namespace

std::optional<FaultPlan>
faultPlanFromJson(const JsonValue &json, std::string *error)
{
    if (!json.isObject()) {
        *error = "fault plan must be a JSON object";
        return std::nullopt;
    }
    FaultPlan plan;
    plan.active = true;
    plan.seed = static_cast<std::uint64_t>(json.numberOr("seed", 1.0));

    if (const JsonValue *bus = json.find("bus")) {
        if (!bus->isArray()) {
            *error = "'bus' must be an array of rules";
            return std::nullopt;
        }
        for (const auto &entry : bus->asArray()) {
            if (!entry.isObject()) {
                *error = "bus rules must be objects";
                return std::nullopt;
            }
            BusFaultRule rule;
            rule.endpoint = entry.stringOr("endpoint", "*");
            if (!rateField(entry, "drop", &rule.dropRate, error) ||
                !rateField(entry, "duplicate", &rule.duplicateRate,
                           error) ||
                !rateField(entry, "reorder", &rule.reorderRate, error))
                return std::nullopt;
            const double jitterMs = entry.numberOr(
                "reorder_jitter_ms", rule.reorderJitterMax.toMsec());
            if (jitterMs <= 0.0) {
                *error = "'reorder_jitter_ms' must be positive";
                return std::nullopt;
            }
            rule.reorderJitterMax = SimTime::msec(jitterMs);
            plan.bus.push_back(std::move(rule));
        }
    }

    if (const JsonValue *crashes = json.find("crashes")) {
        if (!crashes->isArray()) {
            *error = "'crashes' must be an array";
            return std::nullopt;
        }
        for (const auto &entry : crashes->asArray()) {
            if (!entry.isObject()) {
                *error = "crash entries must be objects";
                return std::nullopt;
            }
            CrashEvent crash;
            crash.stage =
                static_cast<int>(entry.numberOr("stage", 0.0));
            if (crash.stage < 0) {
                *error = "crash 'stage' must be >= 0";
                return std::nullopt;
            }
            const double atSec = entry.numberOr("at_sec", -1.0);
            if (atSec < 0.0) {
                *error = "crash 'at_sec' is required and must be >= 0";
                return std::nullopt;
            }
            crash.at = SimTime::sec(atSec);
            const double recoverySec = entry.numberOr(
                "recovery_sec", crash.recovery.toSec());
            if (recoverySec <= 0.0) {
                *error = "crash 'recovery_sec' must be positive";
                return std::nullopt;
            }
            crash.recovery = SimTime::sec(recoverySec);
            plan.crashes.push_back(crash);
        }
    }

    if (const JsonValue *tele = json.find("telemetry")) {
        if (!tele->isObject()) {
            *error = "'telemetry' must be an object";
            return std::nullopt;
        }
        if (!rateField(*tele, "truncate", &plan.telemetry.truncateRate,
                       error) ||
            !rateField(*tele, "stale", &plan.telemetry.staleRate,
                       error) ||
            !rateField(*tele, "rapl_fail", &plan.telemetry.raplFailRate,
                       error) ||
            !rateField(*tele, "perf_ctl_fail",
                       &plan.telemetry.perfCtlFailRate, error))
            return std::nullopt;
    }
    return plan;
}

std::optional<FaultPlan>
faultPlanFromFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read fault plan '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    JsonParseResult parsed = parseJson(text.str());
    if (!parsed.ok()) {
        *error = path + ": " + parsed.error;
        return std::nullopt;
    }
    std::string inner;
    auto plan = faultPlanFromJson(*parsed.value, &inner);
    if (!plan)
        *error = path + ": " + inner;
    return plan;
}

} // namespace pc
