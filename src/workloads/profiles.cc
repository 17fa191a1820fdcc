#include "workloads/profiles.h"

#include <algorithm>

#include "common/logging.h"

namespace pc {

WorkDemand
StageProfile::sample(Rng &rng, int refMhz) const
{
    if (participation < 1.0 && !rng.bernoulli(participation)) {
        WorkDemand skipped;
        skipped.skip = true;
        return skipped;
    }
    const double total = rng.lognormal(meanServiceSec, cv);
    const double cpuAtProfiled = total * computeFraction;
    const double mem = total - cpuAtProfiled;

    WorkDemand demand;
    demand.memSec = mem;
    // Re-express the compute part at the ladder reference frequency:
    // time(f) = cpuRef * refMhz / f, so cpuRef = cpuProfiled * f_p/ref.
    demand.cpuSecAtRef = cpuAtProfiled *
        static_cast<double>(profiledMhz) / static_cast<double>(refMhz);
    return demand;
}

double
StageProfile::expectedServiceSecAt(int mhz) const
{
    const double cpu = meanServiceSec * computeFraction;
    const double mem = meanServiceSec - cpu;
    return mem + cpu * static_cast<double>(profiledMhz) /
        static_cast<double>(mhz);
}

WorkloadModel::WorkloadModel(std::string name,
                             std::vector<StageProfile> stages)
    : name_(std::move(name)), stages_(std::move(stages))
{
    if (stages_.empty())
        fatal("workload '%s' has no stages", name_.c_str());
}

const StageProfile &
WorkloadModel::stage(int i) const
{
    if (i < 0 || i >= numStages())
        panic("stage profile index %d out of range", i);
    return stages_[static_cast<std::size_t>(i)];
}

std::vector<WorkDemand>
WorkloadModel::sampleDemands(Rng &rng, int refMhz) const
{
    std::vector<WorkDemand> demands;
    demands.reserve(stages_.size());
    appendDemands(rng, refMhz, &demands);
    return demands;
}

void
WorkloadModel::appendDemands(Rng &rng, int refMhz,
                             std::vector<WorkDemand> *out) const
{
    for (const auto &stage : stages_)
        out->push_back(stage.sample(rng, refMhz));
}

double
WorkloadModel::bottleneckCapacityAt(int mhz) const
{
    double slowest = 0.0;
    for (const auto &stage : stages_)
        slowest = std::max(slowest, stage.expectedServiceSecAt(mhz));
    return 1.0 / slowest;
}

std::vector<StageSpec>
WorkloadModel::layout(int perStage, int level) const
{
    return layout(std::vector<int>(stages_.size(), perStage), level);
}

std::vector<StageSpec>
WorkloadModel::layout(const std::vector<int> &counts, int level) const
{
    if (counts.size() != stages_.size())
        fatal("layout counts (%zu) do not match stages (%zu)",
              counts.size(), stages_.size());
    std::vector<StageSpec> specs;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        StageSpec spec;
        spec.name = stages_[i].name;
        spec.initialInstances = counts[i];
        spec.initialLevel = level;
        spec.kind = stages_[i].kind;
        spec.referenceShards = counts[i];
        spec.shardCv = stages_[i].shardCv;
        specs.push_back(std::move(spec));
    }
    return specs;
}

WorkloadModel
WorkloadModel::sirius()
{
    // Fig. 8: ASR (speech, compute heavy), IMM (image matching,
    // more memory bound), QA (dominant, heavy-tailed OpenEphyra-style).
    return WorkloadModel(
        "sirius",
        {
            StageProfile{"ASR", 0.65, 0.30, 0.55, 1800},
            StageProfile{"IMM", 0.35, 0.35, 0.45, 1800},
            StageProfile{"QA", 1.60, 0.70, 0.90, 1800},
        });
}

WorkloadModel
WorkloadModel::siriusMixed()
{
    auto stages = sirius().stages();
    stages[1].participation = 0.5; // voice-only queries skip IMM
    return WorkloadModel("sirius-mixed", std::move(stages));
}

WorkloadModel
WorkloadModel::nlp()
{
    // Fig. 9 (Senna): part-of-speech tagging, syntactic parsing (PSG),
    // semantic role labelling. SRL dominates.
    return WorkloadModel(
        "nlp",
        {
            StageProfile{"POS", 0.25, 0.20, 0.50, 1800},
            StageProfile{"PSG", 0.60, 0.30, 0.60, 1800},
            StageProfile{"SRL", 2.20, 0.60, 0.92, 1800},
        });
}

WorkloadModel
WorkloadModel::webSearch()
{
    // Nutch-style search: every query fans out to all leaf instances
    // (each searches its corpus shard; per-shard time is quoted at the
    // Table 3 reference of 10 leaves) and completes at the aggregation
    // stage once the slowest leaf returns — the tail-at-scale shape of
    // distributed search.
    StageProfile leaf{"LEAF", 0.010, 0.40, 0.75, 1800};
    leaf.kind = StageKind::FanOut;
    leaf.shardCv = 0.25;
    return WorkloadModel(
        "websearch",
        {
            leaf,
            StageProfile{"AGG", 0.005, 0.30, 0.60, 1800},
        });
}

WorkloadModel
WorkloadModel::microservice()
{
    // An RPC-scale pipeline: a thin gateway, the dominant business-
    // logic tier, and a memory-bound storage tier. Means are quoted at
    // the 1.8 GHz reference like every other profile; LOGIC bounds the
    // throughput at ~417 qps per instance, so the millionQuery layout
    // of {3,7,4} sustains a few thousand qps per 16-core node.
    return WorkloadModel(
        "microservice",
        {
            StageProfile{"GW", 0.0008, 0.30, 0.50, 1800},
            StageProfile{"LOGIC", 0.0024, 0.50, 0.85, 1800},
            StageProfile{"STORE", 0.0012, 0.70, 0.40, 1800},
        });
}

} // namespace pc
