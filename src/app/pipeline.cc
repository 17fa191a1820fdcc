#include "app/pipeline.h"

#include "app/stats_codec.h"
#include "common/logging.h"

namespace pc {

MultiStageApp::MultiStageApp(Simulator *sim, CmpChip *chip, MessageBus *bus,
                             std::string name,
                             const std::vector<StageSpec> &specs,
                             Telemetry *telemetry)
    : sim_(sim), bus_(bus), name_(std::move(name))
{
    if (specs.empty())
        fatal("application '%s' needs at least one stage", name_.c_str());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        auto stage = std::make_unique<Stage>(
            static_cast<int>(i), spec.name, sim, chip, spec.dispatch,
            spec.kind);
        if (spec.kind == StageKind::FanOut) {
            const int ref = spec.referenceShards > 0
                ? spec.referenceShards
                : spec.initialInstances;
            stage->configureFanOut(ref, spec.shardCv,
                                   0x5eed0000ull + i);
        }
        const int idx = static_cast<int>(i);
        stage->setCompletionCallback(
            [this, idx](QueryPtr q) { onStageComplete(idx, std::move(q)); });
        stage->setTelemetry(telemetry);
        for (int k = 0; k < spec.initialInstances; ++k) {
            if (!stage->launchInstance(spec.initialLevel))
                fatal("application '%s': no free core for stage '%s' "
                      "instance %d", name_.c_str(), spec.name.c_str(), k);
        }
        stages_.push_back(std::move(stage));
    }
}

Stage &
MultiStageApp::stage(int i)
{
    if (i < 0 || i >= numStages())
        panic("stage index %d out of range", i);
    return *stages_[static_cast<std::size_t>(i)];
}

const Stage &
MultiStageApp::stage(int i) const
{
    if (i < 0 || i >= numStages())
        panic("stage index %d out of range", i);
    return *stages_[static_cast<std::size_t>(i)];
}

void
MultiStageApp::submit(QueryPtr q)
{
    if (!q)
        panic("submitting null query");
    if (q->numStages() != numStages())
        panic("query %lld has %d stage demands, app has %d stages",
              static_cast<long long>(q->id()), q->numStages(), numStages());
    ++submitted_;
    routeToStage(0, std::move(q));
}

void
MultiStageApp::routeToStage(int stageIndex, QueryPtr q)
{
    // Skip stages the query does not exercise (e.g. IMM for a Sirius
    // query with no image input).
    int next = stageIndex;
    while (next < numStages() && q->demand(next).skip)
        ++next;

    if (next < numStages()) {
        stages_[static_cast<std::size_t>(next)]->submit(std::move(q));
        return;
    }

    q->markCompleted(sim_->now());
    ++completed_;
    if (sink_)
        sink_(q);
    if (report_) {
        if (wireReports_) {
            bus_->send(report_, std::make_shared<WireStatsMessage>(
                                    encodeStats(statsOf(*q))));
        } else {
            // The message block comes from the slab, so reporting a
            // completion allocates nothing once the slab is warm.
            bus_->send(report_,
                       std::allocate_shared<QueryCompletedMessage>(
                           SlabAllocator<QueryCompletedMessage>(
                               slab_.get()),
                           std::move(q)));
        }
    }
}

void
MultiStageApp::setCompletionSink(std::function<void(QueryPtr)> sink)
{
    sink_ = std::move(sink);
}

std::uint64_t
MultiStageApp::residentQueries() const
{
    std::uint64_t resident = 0;
    for (const auto &stage : stages_)
        resident += stage->residentQueries();
    return resident;
}

std::vector<ServiceInstance *>
MultiStageApp::allInstances() const
{
    std::vector<ServiceInstance *> out;
    for (const auto &stage : stages_)
        for (auto *inst : stage->allInstances())
            out.push_back(inst);
    return out;
}

void
MultiStageApp::onStageComplete(int stageIndex, QueryPtr q)
{
    routeToStage(stageIndex + 1, std::move(q));
}

} // namespace pc
