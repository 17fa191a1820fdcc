/**
 * @file
 * Control-policy interface shared by PowerChief and every baseline.
 *
 * All policies (stage-agnostic baseline, always-frequency, always-
 * instance, PowerChief, Pegasus, PowerChief-conserve) run on the same
 * plumbing — bottleneck identification, budget accounting, reallocation
 * — mirroring §8.2's setup where "the same bottleneck identification
 * method and power reallocation mechanism from PowerChief is applied to
 * frequency and instance boosting".
 */

#ifndef PC_CORE_POLICY_H
#define PC_CORE_POLICY_H

#include "app/pipeline.h"
#include "core/boost_engine.h"
#include "core/bottleneck.h"
#include "core/reallocator.h"
#include "core/speedup.h"
#include "core/decision.h"
#include "hal/cpufreq.h"
#include "power/budget.h"
#include "stats/window.h"

namespace pc {

class AuditLog;
class Telemetry;

/** Tuning knobs of the command-center control loop (Tables 2 & 3). */
struct ControlConfig
{
    SimTime adjustInterval = SimTime::sec(25);
    SimTime withdrawInterval = SimTime::sec(150);
    /** Moving-window span for per-instance q̄/s̄ statistics. */
    SimTime statsWindow = SimTime::sec(50);
    /** Skip adjustment when metric(back) - metric(front) is below this. */
    double balanceThresholdSec = 1.0;
    /** Window span for the end-to-end latency signal (QoS policies). */
    SimTime e2eWindow = SimTime::sec(30);
    /** Enable the §6.2 withdraw monitor (PowerChief / conserve modes). */
    bool enableWithdraw = false;
    /**
     * Degraded-telemetry guard: exclude from the bottleneck ranking any
     * instance whose last report is older than this (its moving
     * averages are frozen). Zero disables — the default, so perfect-
     * fabric runs are unchanged. See docs/ROBUSTNESS.md.
     */
    SimTime staleWindow = SimTime::zero();
};

/** Everything a policy may observe and actuate during one interval. */
struct ControlContext
{
    Simulator *sim = nullptr;
    MultiStageApp *app = nullptr;
    CpufreqDriver *cpufreq = nullptr;
    PowerBudget *budget = nullptr;
    BottleneckIdentifier *identifier = nullptr;
    PowerReallocator *realloc = nullptr;
    BoostingDecisionEngine *engine = nullptr;
    const SpeedupBook *speedups = nullptr;
    const ControlConfig *cfg = nullptr;
    /** End-to-end latency samples (seconds) over cfg->e2eWindow. */
    const MovingWindow *e2eLatency = nullptr;
    /**
     * Telemetry every actuation is emitted into (core/decision.h);
     * nullptr when telemetry is off.
     */
    Telemetry *telemetry = nullptr;
    /**
     * Decision-audit log for policy-authored records (FastCap /
     * CuttleSys interval plans); nullptr when auditing is off.
     */
    AuditLog *audit = nullptr;
    /**
     * Counts DVFS actuations whose PERF_CTL write did not take effect
     * (read-back mismatch); nullptr when telemetry is off. The actuate
     * helpers reconcile the budget ledger and bump this.
     */
    Counter *actuationFailures = nullptr;
    /** Fresh ascending-metric ranking computed for this interval. */
    SortedSnapshots ranked;
    /**
     * Stages successfully boosted this interval, appended by the
     * actuate helpers (frequency and instance boosts; step-downs do
     * not count). Read by the critical-path collector to score the
     * policy's stage choice against the realized critical paths.
     */
    std::vector<int> boostedStages;

    /** Spread between bottleneck and fastest instance, in seconds. */
    double
    balanceGap() const
    {
        if (ranked.size() < 2)
            return 0.0;
        return ranked.back().metric - ranked.front().metric;
    }
};

class ControlPolicy
{
  public:
    virtual ~ControlPolicy() = default;

    virtual const char *name() const = 0;

    /** Invoked by the command center once per adjust interval. */
    virtual void onInterval(ControlContext &ctx) = 0;
};

} // namespace pc

#endif // PC_CORE_POLICY_H
