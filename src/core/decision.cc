#include "core/decision.h"

#include <string>

#include "obs/telemetry.h"

namespace pc {

const char *
toString(DecisionKind kind)
{
    switch (kind) {
      case DecisionKind::FrequencyBoost: return "freq-boost";
      case DecisionKind::FrequencyStepDown: return "freq-step-down";
      case DecisionKind::InstanceLaunch: return "instance-launch";
      case DecisionKind::InstanceWithdraw: return "instance-withdraw";
      case DecisionKind::PowerRecycle: return "power-recycle";
      case DecisionKind::IntervalSkipped: return "interval-skipped";
    }
    return "?";
}

void
emitDecision(Telemetry *telemetry, SimTime t, DecisionKind kind,
             std::string_view subject, double value)
{
    if (!telemetry)
        return;
    const std::string name = toString(kind);
    telemetry->metrics().counter("decision." + name + "_total").add();
    if (telemetry->audit().enabled()) {
        // The policy actuated a boost the engine selected; close the
        // loop on the audit record it came from.
        if (kind == DecisionKind::FrequencyBoost)
            telemetry->audit().noteActuation(AuditBoostKind::Frequency);
        else if (kind == DecisionKind::InstanceLaunch)
            telemetry->audit().noteActuation(AuditBoostKind::Instance);
    }
    if (kind == DecisionKind::PowerRecycle)
        telemetry->metrics()
            .counter("power.recycled_watts_total")
            .add(value);
    if (telemetry->tracing()) {
        JsonObject args;
        args["subject"] = JsonValue(std::string(subject));
        args["value"] = JsonValue(value);
        telemetry->trace().instant(TraceSink::kControlTrack, name,
                                   "decision", t, std::move(args));
    }
}

} // namespace pc
