#include "app/service_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace pc {

ServiceInstance::ServiceInstance(std::int64_t id, std::string name,
                                 int stageIndex, Simulator *sim,
                                 CmpChip *chip, int coreId,
                                 CompletionCallback onComplete)
    : id_(id), name_(std::move(name)), stageIndex_(stageIndex), sim_(sim),
      chip_(chip), coreId_(coreId), onComplete_(std::move(onComplete))
{
    chip_->core(coreId_).setFreqChangeListener(
        [this](int oldLvl, int newLvl) { onFreqChange(oldLvl, newLvl); });
}

ServiceInstance::~ServiceInstance()
{
    if (completionEvent_ != Simulator::kInvalidEvent)
        sim_->cancel(completionEvent_);
}

MHz
ServiceInstance::frequency() const
{
    return chip_->core(coreId_).frequency();
}

int
ServiceInstance::level() const
{
    return chip_->core(coreId_).level();
}

void
ServiceInstance::setTelemetry(Telemetry *telemetry)
{
    if (!telemetry) {
        waitHist_ = nullptr;
        serveHist_ = nullptr;
        hops_ = nullptr;
        return;
    }
    const std::string prefix =
        "app.stage" + std::to_string(stageIndex_) + ".";
    waitHist_ = &telemetry->metrics().histogram(prefix + "wait_sec");
    serveHist_ = &telemetry->metrics().histogram(prefix + "serve_sec");
    hops_ = &telemetry->metrics().counter(prefix + "hops_total");
}

std::size_t
ServiceInstance::queueLength() const
{
    return queue_.size() + (busy() ? 1 : 0);
}

void
ServiceInstance::enqueue(QueryPtr q)
{
    adopt(PendingQuery{std::move(q), sim_->now()});
}

void
ServiceInstance::adopt(PendingQuery pending)
{
    if (!pending.query)
        panic("instance %s: enqueue of null query", name_.c_str());
    queue_.push_back(std::move(pending));
    if (!busy())
        startNext();
}

double
ServiceInstance::currentServiceSecAt(int mhz) const
{
    const int refMhz =
        chip_->model().ladder().freqAt(0).value();
    return currentScale_ * currentInterference_ *
        current_->demand(stageIndex_).serviceSec(mhz, refMhz);
}

void
ServiceInstance::startNext()
{
    if (busy() || queue_.empty())
        return;
    PendingQuery next = std::move(queue_.front());
    queue_.pop_front();

    current_ = std::move(next.query);
    currentScale_ = next.workScale;
    currentHop_ = HopRecord{};
    currentHop_.instanceId = id_;
    currentHop_.stageIndex = stageIndex_;
    currentHop_.enqueued = next.enqueued;
    currentHop_.started = sim_->now();
    currentHop_.shardIndex = next.shardIndex;
    currentHop_.shardCount = next.shardCount;

    progress_ = 0.0;
    lastResume_ = sim_->now();
    currentInterference_ = chip_->interferenceFactor(coreId_);
    chip_->core(coreId_).setBusy(true);

    const double total = currentServiceSecAt(frequency().value());
    if (total < 0.0)
        panic("instance %s: negative service time %f for query %lld",
              name_.c_str(), total,
              static_cast<long long>(current_->id()));
    completionEvent_ =
        sim_->scheduleAfter(SimTime::sec(total), [this]() {
            completionEvent_ = Simulator::kInvalidEvent;
            finishCurrent();
        });
}

void
ServiceInstance::onFreqChange(int oldLevel, int newLevel)
{
    if (!busy())
        return;
    if (newLevel > oldLevel)
        currentHop_.boosted = true;
    const auto &ladder = chip_->model().ladder();

    // The span [lastResume_, now) ran at the old frequency: settle the
    // progress fraction it bought, then reschedule the completion for the
    // remaining fraction at the new rate.
    const double elapsed = (sim_->now() - lastResume_).toSec();
    const double oldTotal =
        currentServiceSecAt(ladder.freqAt(oldLevel).value());
    if (oldTotal > 0.0)
        progress_ = std::min(1.0, progress_ + elapsed / oldTotal);
    lastResume_ = sim_->now();

    if (completionEvent_ != Simulator::kInvalidEvent) {
        sim_->cancel(completionEvent_);
        completionEvent_ = Simulator::kInvalidEvent;
    }
    const double newTotal =
        currentServiceSecAt(ladder.freqAt(newLevel).value());
    const double remaining = std::max(0.0, (1.0 - progress_) * newTotal);
    completionEvent_ =
        sim_->scheduleAfter(SimTime::sec(remaining), [this]() {
            completionEvent_ = Simulator::kInvalidEvent;
            finishCurrent();
        });
}

void
ServiceInstance::finishCurrent()
{
    if (!busy())
        panic("instance %s: completion with no in-flight query",
              name_.c_str());
    currentHop_.finished = sim_->now();
    currentHop_.servedMhz = frequency().value();
    busyAccum_ += currentHop_.finished - currentHop_.started;
    current_->addHop(currentHop_);
    ++served_;

    if (waitHist_)
        waitHist_->add(currentHop_.queuing().toSec());
    if (serveHist_)
        serveHist_->add(currentHop_.serving().toSec());
    if (hops_)
        hops_->add();

    QueryPtr done = std::move(current_);
    current_.reset();
    chip_->core(coreId_).setBusy(false);

    startNext();
    onComplete_(std::move(done));
}

std::vector<PendingQuery>
ServiceInstance::stealHalfQueue()
{
    const std::size_t take = queue_.size() / 2;
    std::vector<PendingQuery> stolen;
    stolen.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
        stolen.push_back(std::move(queue_.back()));
        queue_.pop_back();
    }
    // Preserve original FIFO order among the stolen queries.
    std::reverse(stolen.begin(), stolen.end());
    return stolen;
}

std::vector<PendingQuery>
ServiceInstance::drainWaiting()
{
    std::vector<PendingQuery> all;
    all.reserve(queue_.size());
    for (std::size_t i = 0; i < queue_.size(); ++i)
        all.push_back(std::move(queue_[i]));
    queue_.clear();
    return all;
}

std::optional<PendingQuery>
ServiceInstance::abortService()
{
    if (!busy())
        return std::nullopt;
    if (completionEvent_ != Simulator::kInvalidEvent) {
        sim_->cancel(completionEvent_);
        completionEvent_ = Simulator::kInvalidEvent;
    }
    PendingQuery orphan;
    orphan.query = std::move(current_);
    orphan.enqueued = currentHop_.enqueued;
    orphan.workScale = currentScale_;
    orphan.shardIndex = currentHop_.shardIndex;
    orphan.shardCount = currentHop_.shardCount;
    // Stamp the aborted partial service as a wasted hop so the
    // critical-path layer can attribute the lost time; it stays out of
    // busyAccum_/served_ and the wait/serve histograms, so latency and
    // utilization statistics are unchanged.
    HopRecord wastedHop = currentHop_;
    wastedHop.finished = sim_->now();
    wastedHop.servedMhz = frequency().value();
    wastedHop.wasted = true;
    orphan.query->addHop(wastedHop);
    current_.reset();
    chip_->core(coreId_).setBusy(false);
    return orphan;
}

SimTime
ServiceInstance::totalBusyTime() const
{
    SimTime total = busyAccum_;
    if (busy())
        total += sim_->now() - currentHop_.started;
    return total;
}

} // namespace pc
