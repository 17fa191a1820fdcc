/**
 * @file
 * The command center's decision log.
 *
 * Every actuation — frequency boost/step-down, instance launch,
 * withdraw, power recycling, skipped interval — is emitted once, by the
 * call site that performed it, into the telemetry layer: a
 * "decision.<kind>_total" counter (created on the first emission of
 * its kind), "power.recycled_watts_total" for recycles, the audit
 * record's actuation mark for boosts and launches, and an instant
 * event on the trace sink's control track. Nothing is kept in memory;
 * with telemetry off an emission is a null check.
 */

#ifndef PC_CORE_DECISION_H
#define PC_CORE_DECISION_H

#include <string_view>

#include "common/time.h"

namespace pc {

class Telemetry;

enum class DecisionKind {
    FrequencyBoost,
    FrequencyStepDown,
    InstanceLaunch,
    InstanceWithdraw,
    PowerRecycle,
    IntervalSkipped,
};

/** The kind's name in counters and trace events ("freq-boost", ...). */
const char *toString(DecisionKind kind);

/**
 * Emit one decision at @p t. @p subject names the instance (or cause)
 * acted on; @p value is the kind-specific magnitude (new level, watts
 * recycled, balance gap). No-op when @p telemetry is nullptr.
 */
void emitDecision(Telemetry *telemetry, SimTime t, DecisionKind kind,
                  std::string_view subject, double value = 0.0);

} // namespace pc

#endif // PC_CORE_DECISION_H
