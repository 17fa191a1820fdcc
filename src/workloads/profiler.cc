#include "workloads/profiler.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/service_instance.h"
#include "app/stage.h"
#include "common/logging.h"
#include "hal/chip.h"
#include "sim/simulator.h"
#include "stats/streaming.h"

namespace pc {

OfflineProfiler::OfflineProfiler(int queriesPerLevel)
    : queriesPerLevel_(queriesPerLevel)
{
    if (queriesPerLevel_ <= 0)
        fatal("profiler batch size must be positive");
}

SpeedupTable
OfflineProfiler::profileStage(const StageProfile &stage,
                              const PowerModel &model,
                              std::uint64_t seed) const
{
    const auto &ladder = model.ladder();
    const int refMhz = ladder.freqAt(0).value();

    // One shared batch of demands: measuring the same queries at every
    // level makes the normalized curve exactly paired.
    Rng rng(seed);
    const LognormalParams service(stage.meanServiceSec, stage.cv);
    std::vector<WorkDemand> batch;
    batch.reserve(static_cast<std::size_t>(queriesPerLevel_));
    for (int i = 0; i < queriesPerLevel_; ++i)
        batch.push_back(stage.sample(rng, refMhz, service));

    // Every level reuses the first level's queries.
    const QuerySlab::Owner slab = QuerySlab::create();
    std::vector<double> meanSec;
    for (int lvl = 0; lvl < ladder.numLevels(); ++lvl) {
        // A throwaway single-core rig per level: the batch runs through
        // a real ServiceInstance so profiling and production share the
        // same execution path.
        Simulator sim;
        CmpChip chip(&sim, &model, 1);
        const auto coreId = chip.acquireCore(lvl);
        if (!coreId)
            panic("profiler could not acquire its core");

        StreamingStats serving;
        ServiceInstance inst(
            Stage::nextInstanceId(), stage.name + "#prof", 0, &sim, &chip,
            *coreId, [&serving](QueryPtr q) {
                serving.add(q->hop(q->numHops() - 1).serving().toSec());
            });

        for (int i = 0; i < queriesPerLevel_; ++i)
            inst.enqueue(slab->make(
                i + 1, sim.now(),
                std::span(&batch[static_cast<std::size_t>(i)], 1)));
        sim.run();
        if (serving.count() !=
            static_cast<std::uint64_t>(queriesPerLevel_))
            panic("profiler lost queries at level %d", lvl);
        meanSec.push_back(serving.mean());
    }

    std::vector<double> normalized;
    normalized.reserve(meanSec.size());
    for (double m : meanSec)
        normalized.push_back(m / meanSec.front());
    normalized.front() = 1.0;
    return SpeedupTable(std::move(normalized));
}

namespace {

template <typename T>
void
appendBits(std::string &key, const T &value)
{
    key.append(reinterpret_cast<const char *>(&value), sizeof(value));
}

/**
 * Exact-content memo key: every input profileStage reads. Two calls
 * with bit-identical inputs produce bit-identical SpeedupBooks, so an
 * exact-match key (no hashing-only shortcut) preserves byte-exact run
 * reproducibility through the cache.
 */
std::string
profileKey(const WorkloadModel &workload, const PowerModel &model,
           std::uint64_t seed, int queriesPerLevel)
{
    std::string key = workload.name();
    key.push_back('\0');
    appendBits(key, seed);
    appendBits(key, queriesPerLevel);
    const auto &ladder = model.ladder();
    appendBits(key, ladder.numLevels());
    for (int lvl = 0; lvl < ladder.numLevels(); ++lvl)
        appendBits(key, ladder.freqAt(lvl).value());
    appendBits(key, workload.numStages());
    for (int s = 0; s < workload.numStages(); ++s) {
        const StageProfile &stage = workload.stage(s);
        key.append(stage.name);
        key.push_back('\0');
        appendBits(key, stage.meanServiceSec);
        appendBits(key, stage.cv);
        appendBits(key, stage.computeFraction);
        appendBits(key, stage.profiledMhz);
        appendBits(key, stage.participation);
        appendBits(key, static_cast<int>(stage.kind));
        appendBits(key, stage.shardCv);
    }
    return key;
}

std::mutex profileCacheMutex;
std::unordered_map<std::string, SpeedupBook> profileCache;
std::uint64_t profileCacheHitCount = 0;

} // namespace

void
OfflineProfiler::clearProfileCache()
{
    const std::lock_guard<std::mutex> lock(profileCacheMutex);
    profileCache.clear();
}

std::uint64_t
OfflineProfiler::profileCacheHits()
{
    const std::lock_guard<std::mutex> lock(profileCacheMutex);
    return profileCacheHitCount;
}

SpeedupBook
OfflineProfiler::profileWorkload(const WorkloadModel &workload,
                                 const PowerModel &model,
                                 std::uint64_t seed) const
{
    const std::string key =
        profileKey(workload, model, seed, queriesPerLevel_);
    {
        const std::lock_guard<std::mutex> lock(profileCacheMutex);
        const auto it = profileCache.find(key);
        if (it != profileCache.end()) {
            ++profileCacheHitCount;
            return it->second;
        }
    }

    SpeedupBook book;
    for (int s = 0; s < workload.numStages(); ++s) {
        book.setStage(s, profileStage(workload.stage(s), model,
                                      seed + static_cast<std::uint64_t>(s)));
    }

    const std::lock_guard<std::mutex> lock(profileCacheMutex);
    profileCache.emplace(key, book);
    return book;
}

} // namespace pc
