/**
 * @file
 * Layer probes: host-time measurements of single layers, taken by
 * calling each layer's public functions in a loop sized from the
 * workload (window sample counts, heap sizes, shard count, spray rate).
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads/profiles.h"

namespace perfbench {

/** Input sizes of the probes, taken from one workload. */
struct ProbeSizes
{
    /** Workload models sampled (sample_ns) and cold-profiled. */
    std::vector<pc::WorkloadModel> models;
    /** Application the ranking probe scores, and its layout. */
    pc::WorkloadModel rankModel = pc::WorkloadModel::sirius();
    std::vector<int> rankLayout;
    /**
     * Controller statistics window and the queries one node group
     * completes in it (measured: completed ÷ duration × window).
     */
    double windowSec = 50.0;
    int windowSamples = 0;
    /** Simulator heap entries a run holds (measured per interval). */
    int pendingEvents = 0;
    /** Profile seed of the workload's runs (leaves the cache warm). */
    std::uint64_t profileSeed = 0;
};

/** The ShardedEngine probe's topology, taken from mega's scenario. */
struct EngineProbeSizes
{
    int shards = 0;
    double lookaheadSec = 0.0;
    double arrivalsPerShardSec = 0.0;
    double sprayFraction = 0.0;
    double horizonSec = 2.0;
    std::uint64_t seed = 0;
};

/**
 * Run every probe for about @p budgetSec host seconds in total and
 * return metric name -> value (units as in the metric names: _ns, _us,
 * _ms). sim.cross_shard_posts is an exact count, and
 * sim.cross_shard_variants the number of distinct counts the engine
 * runs at 1 and n workers returned (1 when the engine is deterministic).
 */
std::map<std::string, double> runLayerProbes(const ProbeSizes &sizes,
                                             const EngineProbeSizes &engine,
                                             int workers, double budgetSec,
                                             SpanLog *spans);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
