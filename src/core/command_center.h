/**
 * @file
 * The PowerChief Command Center (paper §3, Fig. 5).
 *
 * One command center manages one multi-stage application: it receives
 * the extended query records over the RPC bus, feeds the bottleneck
 * identifier and the end-to-end latency window, and runs the control
 * policy every adjust interval. The withdraw monitor fires on its own
 * (longer) interval when enabled.
 */

#ifndef PC_CORE_COMMAND_CENTER_H
#define PC_CORE_COMMAND_CENTER_H

#include <functional>
#include <memory>

#include "app/pipeline.h"
#include "app/stats_codec.h"
#include "core/boost_engine.h"
#include "core/bottleneck.h"
#include "core/policies.h"
#include "core/policy.h"
#include "core/reallocator.h"
#include "core/withdraw.h"
#include "hal/cpufreq.h"
#include "power/budget.h"
#include "rpc/bus.h"

namespace pc {

class AuditLog;
class Counter;
class Gauge;
class Telemetry;

class CommandCenter
{
  public:
    /**
     * Wire the command center to an application. Registers the report
     * endpoint on the bus, points the application at it, and reserves
     * budget for every already-running instance.
     *
     * @param speedups offline-profiled frequency/speedup tables, one per
     *        stage (§5.2).
     * @param metric optional override of the bottleneck metric (Eq. 1
     *        by default) — used by the metric ablation.
     */
    CommandCenter(Simulator *sim, MessageBus *bus, CmpChip *chip,
                  MultiStageApp *app, PowerBudget *budget,
                  const SpeedupBook *speedups, ControlConfig cfg,
                  std::unique_ptr<ControlPolicy> policy,
                  std::unique_ptr<BottleneckMetric> metric = nullptr,
                  std::unique_ptr<RecycleOrder> recycleOrder = nullptr);

    ~CommandCenter();

    CommandCenter(const CommandCenter &) = delete;
    CommandCenter &operator=(const CommandCenter &) = delete;

    /** Begin the periodic control loop. */
    void start();

    /**
     * Attach telemetry to the whole control plane: every actuation is
     * emitted into it (core/decision.h), the boost engine and
     * reallocator count their actions, and every tick() emits a
     * control span plus budget headroom and per-stage queue gauges.
     * Call before start().
     * nullptr detaches.
     */
    void setTelemetry(Telemetry *telemetry);

    /** Stop the control loop (the endpoint stays registered). */
    void stop();

    BottleneckIdentifier &identifier() { return identifier_; }
    const MovingWindow &latencyWindow() const { return e2e_; }
    ControlPolicy &policy() { return *policy_; }
    PowerReallocator &reallocator() { return realloc_; }
    BoostingDecisionEngine &engine() { return engine_; }
    WithdrawMonitor &withdrawMonitor() { return withdraw_; }
    PowerBudget &budget() { return *budget_; }
    const ControlConfig &config() const { return cfg_; }

    EndpointId endpoint() const { return endpoint_; }

    /** Trace hook fired after every interval with the fresh context. */
    void
    setIntervalCallback(std::function<void(const ControlContext &)> cb)
    {
        intervalCallback_ = std::move(cb);
    }

    std::uint64_t intervalsRun() const { return intervals_; }
    std::uint64_t queriesObserved() const { return observed_; }

    /** Wire reports that failed to decode and were dropped. */
    std::uint64_t malformedReports() const { return malformedReports_; }

  private:
    void onMessage(const MessagePtr &msg);
    void tick();

    Simulator *sim_;
    MessageBus *bus_;
    CmpChip *chip_;
    MultiStageApp *app_;
    PowerBudget *budget_;
    const SpeedupBook *speedups_;
    ControlConfig cfg_;

    CpufreqDriver cpufreq_;
    BottleneckIdentifier identifier_;
    PowerReallocator realloc_;
    BoostingDecisionEngine engine_;
    WithdrawMonitor withdraw_;
    std::unique_ptr<ControlPolicy> policy_;
    MovingWindow e2e_;

    EndpointId endpoint_ = 0;
    EventId loop_ = Simulator::kInvalidEvent;
    SimTime lastWithdraw_;
    std::uint64_t intervals_ = 0;
    std::uint64_t observed_ = 0;
    std::uint64_t malformedReports_ = 0;
    std::function<void(const ControlContext &)> intervalCallback_;
    /**
     * The context every tick hands the policy, kept across ticks so
     * the ranking and the boosted-stage list reuse their capacity.
     */
    ControlContext ctx_;

    // Telemetry instruments, cached at wiring time (null = off).
    Telemetry *telemetry_ = nullptr;
    AuditLog *audit_ = nullptr;
    Counter *intervalsCounter_ = nullptr;
    Counter *reportsCounter_ = nullptr;
    Counter *malformedCounter_ = nullptr;
    Counter *staleSkipCounter_ = nullptr;
    Counter *actuationFailCounter_ = nullptr;
    Gauge *headroomGauge_ = nullptr;
    std::vector<Gauge *> queueGauges_;

    // Controller-health taps, registered only when the telemetry
    // bundle samples per control interval (--timeseries-out/--alerts),
    // so flags-off runs keep byte-identical metric dumps. Churn/rate
    // gauges are per-interval deltas of the underlying counters.
    std::vector<Gauge *> healthStageP95_;
    std::vector<Gauge *> healthStageP99_;
    Gauge *healthE2eP95_ = nullptr;
    Gauge *healthE2eP99_ = nullptr;
    Gauge *healthMape_ = nullptr;
    Gauge *healthBoostChurn_ = nullptr;
    Gauge *healthWithdrawChurn_ = nullptr;
    Gauge *healthFaultRate_ = nullptr;
    Counter *boostCounter_ = nullptr;
    Counter *launchCounter_ = nullptr;
    Counter *withdrawCounter_ = nullptr;
    std::vector<Counter *> faultCounters_;
    double prevBoostTotal_ = 0.0;
    double prevWithdrawTotal_ = 0.0;
    double prevFaultTotal_ = 0.0;
};

} // namespace pc

#endif // PC_CORE_COMMAND_CENTER_H
