#include "core/command_center.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace pc {

CommandCenter::CommandCenter(Simulator *sim, MessageBus *bus, CmpChip *chip,
                             MultiStageApp *app, PowerBudget *budget,
                             const SpeedupBook *speedups, ControlConfig cfg,
                             std::unique_ptr<ControlPolicy> policy,
                             std::unique_ptr<BottleneckMetric> metric,
                             std::unique_ptr<RecycleOrder> recycleOrder)
    : sim_(sim), bus_(bus), chip_(chip), app_(app), budget_(budget),
      speedups_(speedups), cfg_(cfg), cpufreq_(chip),
      identifier_(cfg.statsWindow, std::move(metric)),
      realloc_(budget, &cpufreq_, std::move(recycleOrder)),
      engine_(budget, &realloc_, speedups),
      withdraw_(sim, app, budget), policy_(std::move(policy)),
      e2e_(cfg.e2eWindow), lastWithdraw_(sim->now())
{
    if (!policy_)
        fatal("command center requires a control policy");

    identifier_.setStaleWindow(cfg_.staleWindow);

    endpoint_ = bus_->registerEndpoint(
        "command-center/" + app_->name(),
        [this](const MessagePtr &msg) { onMessage(msg); });
    app_->setReportEndpoint(endpoint_);

    // The application's initial layout consumes budget from the start.
    for (const auto *inst : app_->allInstances()) {
        if (!budget_->allocate(inst->id(), inst->level()))
            fatal("initial layout of '%s' exceeds the power budget "
                  "(%.2f W cap)", app_->name().c_str(),
                  budget_->cap().value());
    }
}

CommandCenter::~CommandCenter()
{
    stop();
    bus_->unregisterEndpoint(endpoint_);
}

void
CommandCenter::setTelemetry(Telemetry *telemetry)
{
    telemetry_ = telemetry;
    audit_ = telemetry ? &telemetry->audit() : nullptr;
    engine_.setTelemetry(telemetry);
    realloc_.setTelemetry(telemetry);

    healthStageP95_.clear();
    healthStageP99_.clear();
    healthE2eP95_ = nullptr;
    healthE2eP99_ = nullptr;
    healthMape_ = nullptr;
    healthBoostChurn_ = nullptr;
    healthWithdrawChurn_ = nullptr;
    healthFaultRate_ = nullptr;
    boostCounter_ = nullptr;
    launchCounter_ = nullptr;
    withdrawCounter_ = nullptr;
    faultCounters_.clear();
    prevBoostTotal_ = 0.0;
    prevWithdrawTotal_ = 0.0;
    prevFaultTotal_ = 0.0;

    if (!telemetry_) {
        intervalsCounter_ = nullptr;
        reportsCounter_ = nullptr;
        malformedCounter_ = nullptr;
        staleSkipCounter_ = nullptr;
        actuationFailCounter_ = nullptr;
        headroomGauge_ = nullptr;
        queueGauges_.clear();
        return;
    }

    MetricsRegistry &metrics = telemetry_->metrics();
    intervalsCounter_ = &metrics.counter("control.intervals_total");
    reportsCounter_ = &metrics.counter("control.reports_total");
    malformedCounter_ =
        &metrics.counter("control.malformed_reports_total");
    staleSkipCounter_ = &metrics.counter("control.stale_skips_total");
    actuationFailCounter_ =
        &metrics.counter("control.actuation_failures_total");
    headroomGauge_ = &metrics.gauge("power.headroom_watts");
    queueGauges_.clear();
    for (int i = 0; i < app_->numStages(); ++i) {
        queueGauges_.push_back(&metrics.gauge(
            "app.stage" + std::to_string(i) + ".queue_len"));
    }

    if (telemetry_->sampling()) {
        for (int i = 0; i < app_->numStages(); ++i) {
            const std::string prefix =
                "health.stage" + std::to_string(i);
            healthStageP95_.push_back(
                &metrics.gauge(prefix + ".p95_s", "seconds"));
            healthStageP99_.push_back(
                &metrics.gauge(prefix + ".p99_s", "seconds"));
        }
        healthE2eP95_ = &metrics.gauge("health.e2e_p95_s", "seconds");
        healthE2eP99_ = &metrics.gauge("health.e2e_p99_s", "seconds");
        healthMape_ = &metrics.gauge("health.eq1_mape_pct", "percent");
        healthBoostChurn_ = &metrics.gauge("health.boost_churn");
        healthWithdrawChurn_ = &metrics.gauge("health.withdraw_churn");
        healthFaultRate_ = &metrics.gauge("health.fault_rate");
        // Find-or-create gives the same slots the decision emissions
        // and the fault injector increment; counters that stay unwired
        // this run simply read 0.
        boostCounter_ = &metrics.counter("decision.freq-boost_total");
        launchCounter_ =
            &metrics.counter("decision.instance-launch_total");
        withdrawCounter_ =
            &metrics.counter("decision.instance-withdraw_total");
        static const char *const kFaultCounters[] = {
            "faults.bus.dropped_total",    "faults.bus.duplicated_total",
            "faults.bus.delayed_total",    "faults.wire.truncated_total",
            "faults.wire.stale_total",     "faults.rapl.errors_total",
            "faults.perfctl.dropped_total", "faults.crashes_total",
            "faults.relaunches_total",
        };
        for (const char *name : kFaultCounters)
            faultCounters_.push_back(&metrics.counter(name));
    }
}

void
CommandCenter::start()
{
    if (loop_ != Simulator::kInvalidEvent)
        return;
    loop_ = sim_->schedulePeriodic(sim_->now() + cfg_.adjustInterval,
                                   cfg_.adjustInterval,
                                   [this]() { tick(); });
}

void
CommandCenter::stop()
{
    if (loop_ == Simulator::kInvalidEvent)
        return;
    sim_->cancelPeriodic(loop_);
    loop_ = Simulator::kInvalidEvent;
}

void
CommandCenter::onMessage(const MessagePtr &msg)
{
    if (const auto *report =
            dynamic_cast<const QueryCompletedMessage *>(msg.get())) {
        if (!report->query)
            return;
        ++observed_;
        if (reportsCounter_)
            reportsCounter_->add();
        identifier_.observe(sim_->now(), *report->query);
        e2e_.add(sim_->now(), report->query->endToEnd().toSec());
        return;
    }

    // Wire mode (Scenario::wireReports): the report arrived as bytes.
    // Malformed buffers are dropped (and counted) rather than trusted.
    if (const auto *wire =
            dynamic_cast<const WireStatsMessage *>(msg.get())) {
        const auto record = decodeStats(wire->bytes);
        if (!record) {
            ++malformedReports_;
            if (malformedCounter_)
                malformedCounter_->add();
            return;
        }
        ++observed_;
        if (reportsCounter_)
            reportsCounter_->add();
        identifier_.observe(sim_->now(), record->hops);
        e2e_.add(sim_->now(), record->endToEnd().toSec());
    }
}

void
CommandCenter::tick()
{
    identifier_.garbageCollect(*app_);

    if (audit_ && audit_->enabled()) {
        // Stamp the interval first, then settle last interval's
        // predictions against the delay each stage actually realized.
        audit_->beginInterval(sim_->now(), intervals_ + 1);
        std::vector<double> realized(
            static_cast<std::size_t>(app_->numStages()), 0.0);
        for (int s = 0; s < app_->numStages(); ++s)
            realized[s] = identifier_.stageRealizedDelaySec(s);
        audit_->scorePending(sim_->now(), realized);
    }

    ControlContext ctx;
    ctx.sim = sim_;
    ctx.app = app_;
    ctx.cpufreq = &cpufreq_;
    ctx.budget = budget_;
    ctx.identifier = &identifier_;
    ctx.realloc = &realloc_;
    ctx.engine = &engine_;
    ctx.speedups = speedups_;
    ctx.cfg = &cfg_;
    ctx.e2eLatency = &e2e_;
    ctx.telemetry = telemetry_;
    ctx.audit = (audit_ && audit_->enabled()) ? audit_ : nullptr;
    ctx.actuationFailures = actuationFailCounter_;
    ctx.ranked = identifier_.rank(sim_->now(), *app_);

    // Degraded-telemetry accounting: every instance excluded for
    // frozen statistics is counted and audited, so a lossy fabric is
    // visible rather than silently shrinking the candidate set.
    for (const auto &skip : identifier_.lastStaleSkips()) {
        if (staleSkipCounter_)
            staleSkipCounter_->add();
        if (audit_ && audit_->enabled()) {
            audit_->recordStaleSkip(skip.instanceId, skip.stageIndex,
                                    skip.ageSec,
                                    cfg_.staleWindow.toSec());
        }
    }

    policy_->onInterval(ctx);

    if (cfg_.enableWithdraw &&
        sim_->now() - lastWithdraw_ >= cfg_.withdrawInterval) {
        lastWithdraw_ = sim_->now();
        for (const auto id : withdraw_.checkAndWithdraw(ctx.ranked)) {
            // Named from its stage, not ctx.ranked: an instance the
            // ranking skipped as stale can still be withdrawn, and it
            // stays in its stage until the drain reaps it.
            std::string_view name;
            for (int s = 0; s < app_->numStages() && name.empty(); ++s) {
                if (const auto *inst = app_->stage(s).findInstance(id))
                    name = inst->name();
            }
            emitDecision(telemetry_, sim_->now(),
                         DecisionKind::InstanceWithdraw, name);
            if (audit_ && audit_->enabled()) {
                int stage = -1;
                for (const auto &snap : ctx.ranked) {
                    if (snap.instanceId == id) {
                        stage = snap.stageIndex;
                        break;
                    }
                }
                const auto util = withdraw_.lastUtilizationFor(id);
                audit_->recordWithdraw(
                    id, stage, util.value_or(0.0),
                    withdraw_.utilizationThreshold());
            }
        }
    }

    ++intervals_;

    if (telemetry_) {
        intervalsCounter_->add();
        headroomGauge_->set(budget_->headroom().value());
        for (std::size_t i = 0; i < queueGauges_.size(); ++i) {
            queueGauges_[i]->set(static_cast<double>(
                app_->stage(static_cast<int>(i)).totalQueueLength()));
        }

        if (healthE2eP95_) {
            // Both quantiles of each window in one pass (the taps are
            // the dominant sampling cost; see MovingWindow::quantiles).
            static constexpr double kTailQs[2] = {0.95, 0.99};
            double tails[2];
            for (std::size_t i = 0; i < healthStageP95_.size(); ++i) {
                identifier_.stageDelayQuantiles(static_cast<int>(i),
                                                kTailQs, tails, 2);
                healthStageP95_[i]->set(tails[0]);
                healthStageP99_[i]->set(tails[1]);
            }
            e2e_.quantiles(kTailQs, tails, 2);
            healthE2eP95_->set(tails[0]);
            healthE2eP99_->set(tails[1]);
            healthMape_->set((audit_ && audit_->enabled())
                                 ? audit_->mapePct()
                                 : 0.0);

            const double boosts =
                boostCounter_->value() + launchCounter_->value();
            healthBoostChurn_->set(boosts - prevBoostTotal_);
            prevBoostTotal_ = boosts;

            const double withdraws = withdrawCounter_->value();
            healthWithdrawChurn_->set(withdraws - prevWithdrawTotal_);
            prevWithdrawTotal_ = withdraws;

            double faults = 0.0;
            for (const Counter *c : faultCounters_)
                faults += c->value();
            healthFaultRate_->set(faults - prevFaultTotal_);
            prevFaultTotal_ = faults;
        }

        // Close the critical-path scoring window first: the collector
        // compares this interval's boosts against the stages that
        // dominated the critical paths of the queries completing in
        // it, and refreshes the critpath gauges the sample below reads.
        if (auto *critpath = telemetry_->critpath())
            critpath->onControlInterval(sim_->now(), ctx.boostedStages);

        // Sample the interval into the timeseries rings (and run the
        // anomaly detectors) after every gauge above is fresh.
        telemetry_->onControlInterval(sim_->now());

        if (telemetry_->tracing()) {
            // The span covers the interval this tick adjudicated.
            const SimTime end = sim_->now();
            const SimTime begin =
                std::max(SimTime::zero(), end - cfg_.adjustInterval);
            JsonObject args;
            args["interval"] =
                JsonValue(static_cast<double>(intervals_));
            args["headroom_watts"] =
                JsonValue(budget_->headroom().value());
            if (!ctx.ranked.empty()) {
                args["bottleneck_stage"] = JsonValue(
                    static_cast<double>(ctx.ranked.back().stageIndex));
            }
            telemetry_->trace().span(TraceSink::kControlTrack, "adjust",
                                     "control", begin, end,
                                     std::move(args));
        }
    }

    if (intervalCallback_)
        intervalCallback_(ctx);
}

} // namespace pc
