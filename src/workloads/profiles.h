/**
 * @file
 * Behavioural profiles of the paper's evaluation workloads.
 *
 * We do not ship the Sirius/Senna/Nutch binaries; what PowerChief
 * observes of a service is only (a) the distribution of its service
 * time and (b) how that time scales with core frequency. Each stage is
 * therefore modelled by a lognormal service-time distribution at the
 * reference operating point (1.8 GHz, the Table 2 baseline frequency)
 * plus a compute fraction governing its DVFS sensitivity. The shapes
 * follow the paper's descriptions: QA dominates Sirius and is heavy-
 * tailed; SRL dominates Senna; Web Search leaves are short and uniform.
 */

#ifndef PC_WORKLOADS_PROFILES_H
#define PC_WORKLOADS_PROFILES_H

#include <string>
#include <vector>

#include "app/pipeline.h"
#include "app/query.h"
#include "common/rng.h"

namespace pc {

/** Statistical model of one service stage. */
struct StageProfile
{
    std::string name;

    /** Mean service time at the 1.8 GHz reference point, seconds. */
    double meanServiceSec = 0.1;

    /** Coefficient of variation of the lognormal service time. */
    double cv = 0.3;

    /**
     * Fraction of the service time that scales as 1/f; the remainder
     * is frequency-insensitive (memory/IO bound).
     */
    double computeFraction = 0.8;

    /** Frequency (MHz) the profile's mean is quoted at. */
    int profiledMhz = 1800;

    /**
     * Probability that a query exercises this stage at all. Sirius
     * voice-only queries skip IMM (Fig. 8); skipped stages produce a
     * WorkDemand with skip=true and the pipeline routes around them.
     */
    double participation = 1.0;

    /** Pipeline stage or fan-out leaf pool (Web Search). */
    StageKind kind = StageKind::Pipeline;

    /** Fan-out only: leaf-to-leaf service-time variability. */
    double shardCv = 0.0;

    /**
     * Sample this stage's demand for one query.
     * @param refMhz the ladder's reference (minimum) frequency.
     */
    WorkDemand sample(Rng &rng, int refMhz) const;

    /** The same draw, with the service-time (μ, σ) of
     *  LognormalParams(meanServiceSec, cv) computed by the caller. */
    WorkDemand sample(Rng &rng, int refMhz,
                      const LognormalParams &service) const;

    /** Analytic expected service time at frequency @p mhz. */
    double expectedServiceSecAt(int mhz) const;
};

/** A whole application: its stages plus layout defaults. */
class WorkloadModel
{
  public:
    WorkloadModel(std::string name, std::vector<StageProfile> stages);

    const std::string &name() const { return name_; }
    int numStages() const { return static_cast<int>(stages_.size()); }
    const StageProfile &stage(int i) const;
    const std::vector<StageProfile> &stages() const { return stages_; }

    /** Sample the per-stage demands of one query. */
    std::vector<WorkDemand> sampleDemands(Rng &rng, int refMhz) const;

    /**
     * The same draws as sampleDemands(), appended to @p out: the form
     * for callers that own a reusable buffer.
     */
    void appendDemands(Rng &rng, int refMhz,
                       std::vector<WorkDemand> *out) const;

    /**
     * Throughput capacity (qps) of the slowest stage when each stage
     * runs one instance at @p mhz — the load-level yardstick.
     */
    double bottleneckCapacityAt(int mhz) const;

    /** Stage layout with @p perStage instances at @p level each. */
    std::vector<StageSpec> layout(int perStage, int level) const;

    /** Layout with an explicit per-stage instance count. */
    std::vector<StageSpec> layout(const std::vector<int> &counts,
                                  int level) const;

    /** Sirius (Fig. 8): ASR -> IMM -> QA; every query has an image. */
    static WorkloadModel sirius();

    /**
     * Sirius with mixed inputs: only half of the queries carry an
     * image, so half skip the IMM stage entirely (Fig. 8's dashed
     * voice-only path).
     */
    static WorkloadModel siriusMixed();

    /** Senna NLP (Fig. 9): POS -> PSG -> SRL. */
    static WorkloadModel nlp();

    /** Web Search (Nutch): LEAF fan-out stage -> AGG aggregation. */
    static WorkloadModel webSearch();

    /**
     * A millisecond-scale microservice pipeline (GW -> LOGIC -> STORE)
     * for the sharded-engine scale runs: thousands of queries per
     * second per 16-core node, so a million-query fleet run fits in a
     * one-minute horizon (Scenario::millionQuery).
     */
    static WorkloadModel microservice();

  private:
    std::string name_;
    std::vector<StageProfile> stages_;
    /** Each stage's service-time (μ, σ), computed once. */
    std::vector<LognormalParams> serviceLognormal_;
};

} // namespace pc

#endif // PC_WORKLOADS_PROFILES_H
