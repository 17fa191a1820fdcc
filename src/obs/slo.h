/**
 * @file
 * Latency-SLO tracking with multi-window burn-rate accounting.
 *
 * An SLO here is "fraction `objective` of queries finish within
 * `targetSec` end-to-end". The tracker consumes post-warmup completion
 * latencies and maintains, SRE-style, two sliding windows over the
 * good/bad event stream:
 *
 *   burn = (bad fraction in window) / (1 - objective)
 *
 * A burn rate of 1.0 means the error budget is being spent exactly as
 * fast as the objective allows; the fast window (default 60 s) catches
 * acute breakage, the slow window (default 300 s) sustained erosion.
 * Violation seconds integrate the wall time during which the most
 * recent completion was a violation — "how long did users feel it",
 * not just "how many queries missed".
 *
 * Edge cases are pinned by tests: a latency exactly at the target is a
 * *good* event (violation is strictly `latency > target`), and a
 * zero-traffic run reports zero burns and zero violation seconds.
 *
 * Deterministic by construction — the tracker sees only simulated
 * times and latencies — so SLO columns are byte-identical at any sweep
 * --jobs value.
 */

#ifndef PC_OBS_SLO_H
#define PC_OBS_SLO_H

#include <cstdint>
#include <deque>

#include "common/json.h"
#include "common/time.h"

namespace pc {

/** What to track; `enabled == false` keeps the runner's path free. */
struct SloConfig
{
    bool enabled = false;

    /**
     * End-to-end latency target (seconds). 0 = auto: the scenario's
     * qosTargetSec, falling back to 3x the sum of stage mean service
     * times (the arena's QoS yardstick).
     */
    double targetSec = 0.0;

    /** Fraction of queries that must meet the target, in (0, 1). */
    double objective = 0.99;

    /** Sliding windows of the burn-rate accounting (seconds). */
    double fastWindowSec = 60.0;
    double slowWindowSec = 300.0;
};

/** End-of-run SLO accounting, serialized into RunResult. */
struct SloReport
{
    bool collected = false;

    double targetSec = 0.0;
    double objective = 0.99;

    /** Post-warmup completions observed / in violation. */
    std::uint64_t total = 0;
    std::uint64_t violations = 0;

    /** Simulated seconds the latest completion was a violation. */
    double violationSeconds = 0.0;

    /** Final and peak burn rates per window. */
    double fastBurn = 0.0;
    double slowBurn = 0.0;
    double maxFastBurn = 0.0;
    double maxSlowBurn = 0.0;

    double violationRate() const
    {
        return total ? static_cast<double>(violations) /
                static_cast<double>(total)
                     : 0.0;
    }
};

class SloTracker
{
  public:
    /**
     * @param config windows/objective; `targetSec` is ignored in favor
     *        of @p resolvedTargetSec (the caller applies the auto-target
     *        fallback, which needs scenario knowledge this layer lacks).
     */
    SloTracker(const SloConfig &config, double resolvedTargetSec);

    /** Feed one completion at simulated time @p t (non-decreasing). */
    void observe(SimTime t, double latencySec);

    /** Close the violation-seconds integral at the run end. */
    void finish(SimTime end);

    double fastBurn() const { return burnOf(fast_); }
    double slowBurn() const { return burnOf(slow_); }

    SloReport report() const;

  private:
    struct Window
    {
        SimTime span;
        std::deque<std::pair<SimTime, bool>> events; ///< (t, violated)
        std::uint64_t bad = 0;
    };

    void push(Window *w, SimTime t, bool violated) const;
    double burnOf(const Window &w) const;

    double targetSec_;
    double objective_;
    Window fast_;
    Window slow_;

    std::uint64_t total_ = 0;
    std::uint64_t violations_ = 0;
    double violationSeconds_ = 0.0;
    double maxFastBurn_ = 0.0;
    double maxSlowBurn_ = 0.0;
    /** Violation-seconds integral state. */
    bool haveLast_ = false;
    SimTime lastT_;
    bool lastViolated_ = false;
    bool finished_ = false;
};

/** Conditional "slo" object of runResultToJson (alphabetical keys). */
JsonValue sloReportToJson(const SloReport &report);

/** Inverse of sloReportToJson; nullopt-free: missing keys default. */
SloReport sloReportFromJson(const JsonValue &doc);

} // namespace pc

#endif // PC_OBS_SLO_H
