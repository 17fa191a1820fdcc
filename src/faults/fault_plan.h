/**
 * @file
 * Declarative fault plan: what goes wrong, where, and how often.
 *
 * A FaultPlan is the chaos analogue of a Scenario — a pure-data
 * description of every fault the injector will drive: per-endpoint bus
 * faults (drop / duplicate / reorder-jitter), scheduled instance
 * crashes with a recovery delay, and telemetry-path faults (truncated
 * or stale wire reports, RAPL read errors, dropped PERF_CTL writes).
 * Plans load from JSON (`--faults FILE`) or are built programmatically
 * by tests and the chaos sweep.
 *
 * Determinism contract: the plan carries its own seed, all fault
 * decisions are drawn from one Rng inside the simulation's event
 * order, and a plan whose rates are all zero draws *nothing* — such a
 * run is byte-identical to one with no fault layer at all (pinned by
 * tests/test_faults.cc against the golden Fig. 11 trace).
 *
 * JSON schema (all fields optional, rates in [0,1]):
 * ```json
 * {
 *   "seed": 7,
 *   "bus": [
 *     {"endpoint": "command-*", "drop": 0.05,
 *      "duplicate": 0.01, "reorder": 0.1, "reorder_jitter_ms": 5}
 *   ],
 *   "crashes": [
 *     {"stage": 1, "at_sec": 60, "recovery_sec": 10}
 *   ],
 *   "telemetry": {"truncate": 0.05, "stale": 0.02,
 *                 "rapl_fail": 0.1, "perf_ctl_fail": 0.1}
 * }
 * ```
 */

#ifndef PC_FAULTS_FAULT_PLAN_H
#define PC_FAULTS_FAULT_PLAN_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace pc {

/**
 * Fault rates for bus messages whose destination endpoint matches
 * @ref endpoint. Patterns: "*" matches everything, a trailing '*'
 * matches a name prefix ("command-*"), anything else is exact.
 * The first matching rule in FaultPlan::bus wins.
 */
struct BusFaultRule
{
    std::string endpoint = "*";
    /** Probability the message is silently dropped. */
    double dropRate = 0.0;
    /** Probability one duplicate copy is delivered as well. */
    double duplicateRate = 0.0;
    /** Probability the message is delayed by extra jitter (reorder). */
    double reorderRate = 0.0;
    /** Jitter is uniform in (0, reorderJitterMax]. */
    SimTime reorderJitterMax = SimTime::msec(5);
};

/** One scheduled instance crash. */
struct CrashEvent
{
    /** Stage whose deepest-queued instance dies. */
    int stage = 0;
    /** Simulation time of the crash. */
    SimTime at;
    /** Delay before the stage relaunches a replacement. */
    SimTime recovery = SimTime::sec(5);
};

/** Telemetry-path fault rates (independent of bus rules). */
struct TelemetryFaults
{
    /** Probability a WireStatsMessage buffer is truncated in flight. */
    double truncateRate = 0.0;
    /** Probability a WireStatsMessage is replaced by the previous one. */
    double staleRate = 0.0;
    /** Probability a RAPL window read fails (reader holds last value). */
    double raplFailRate = 0.0;
    /** Probability an IA32_PERF_CTL write is silently dropped. */
    double perfCtlFailRate = 0.0;
};

struct FaultPlan
{
    /** Whether an injector should be armed at all. */
    bool active = false;
    /** Fault-decision RNG seed (mixed with the scenario seed). */
    std::uint64_t seed = 1;

    std::vector<BusFaultRule> bus;
    std::vector<CrashEvent> crashes;
    TelemetryFaults telemetry;

    /** First rule matching @p endpointName; nullptr when none does. */
    const BusFaultRule *ruleFor(const std::string &endpointName) const;

    /** Glob-lite match (see BusFaultRule::endpoint). */
    static bool matches(const std::string &pattern,
                        const std::string &name);

    /** Whether any configured rate or crash can actually fire. */
    bool anyEffect() const;
};

/**
 * Build a plan from a parsed JSON document (the schema above).
 * @return nullopt with *error set on schema violations; the returned
 *         plan has active = true.
 */
std::optional<FaultPlan> faultPlanFromJson(const JsonValue &json,
                                           std::string *error);

/** Read @p path, parse, build; errors include the path. */
std::optional<FaultPlan> faultPlanFromFile(const std::string &path,
                                           std::string *error);

} // namespace pc

#endif // PC_FAULTS_FAULT_PLAN_H
