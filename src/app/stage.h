/**
 * @file
 * A processing stage: a pool of service instances plus a dispatcher.
 *
 * Stages own instance lifecycle — launching an instance acquires a
 * dedicated core from the chip (from the pre-warmed pool, §7.2, so
 * startup cost is negligible) and withdrawing one drains it, redirects
 * its waiting queries and returns the core.
 */

#ifndef PC_APP_STAGE_H
#define PC_APP_STAGE_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/dispatcher.h"
#include "app/service_instance.h"
#include "common/rng.h"
#include "hal/chip.h"
#include "sim/simulator.h"

namespace pc {

/**
 * How a stage processes a query.
 *
 * Pipeline: the query is served by exactly one instance of the pool
 * (load-balanced) — the paper's Sirius/NLP stages.
 *
 * FanOut: the query is sharded to *every* live instance and completes
 * when the last shard returns — the Web Search leaf stage, where each
 * leaf searches its partition of the corpus. Per-shard work scales
 * with referenceShards/liveInstances (launching a leaf re-shards the
 * corpus finer; withdrawing one spreads its shard over the rest).
 */
enum class StageKind { Pipeline, FanOut };

class Telemetry;

class Stage
{
  public:
    /** Invoked when an instance of this stage finishes a query. */
    using StageCompletionCallback = std::function<void(QueryPtr)>;

    Stage(int index, std::string name, Simulator *sim, CmpChip *chip,
          DispatchPolicy dispatch = DispatchPolicy::JoinShortestQueue,
          StageKind kind = StageKind::Pipeline);

    StageKind kind() const { return kind_; }

    /**
     * Configure fan-out sharding: @p referenceShards is the leaf count
     * the per-shard demand is quoted at; @p shardCv adds lognormal
     * leaf-to-leaf service variability (0 = identical shards).
     */
    void configureFanOut(int referenceShards, double shardCv,
                         std::uint64_t seed);

    ~Stage();

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    int index() const { return index_; }
    const std::string &name() const { return name_; }

    void setCompletionCallback(StageCompletionCallback cb);

    /**
     * Attach telemetry: the dispatcher and every instance (current and
     * future) get their cached instruments, and each instance gets a
     * trace track. Call before the initial launches so track ids follow
     * declaration order deterministically. nullptr detaches.
     */
    void setTelemetry(Telemetry *telemetry);

    /**
     * Launch a new instance at the given DVFS level.
     * @return the instance, or nullptr when no core is free.
     */
    ServiceInstance *launchInstance(int level);

    /**
     * Withdraw an instance: stop dispatching to it, move its waiting
     * queries to @p redirectTo (or the least-loaded peer when null) and
     * release its core once the in-flight query (if any) completes.
     *
     * @retval false the instance is unknown or it is the stage's last
     *         live instance (withdraw would break the pipeline, §6.2).
     */
    bool withdrawInstance(std::int64_t instanceId,
                          ServiceInstance *redirectTo = nullptr);

    /** What a crash did with the victim's work (fault injection). */
    struct CrashResult
    {
        /** DVFS level the victim ran at (for the relaunch). */
        int level = 0;
        /** Orphaned queries adopted by live peers. */
        std::size_t redispatched = 0;
        /** Orphaned queries parked until the relaunch (no peer left). */
        std::size_t held = 0;
    };

    /**
     * Kill an instance abruptly: its in-flight service is aborted and
     * its whole queue (including that query, which loses all progress)
     * is re-dispatched to the least-loaded live peers; the core is
     * released immediately. When the victim was the last live instance
     * the orphans are parked in a hold queue — the stage keeps
     * accepting arrivals into it — and everything is replayed into the
     * next launchInstance().
     *
     * @retval nullopt the instance is unknown, or it is the last live
     *         instance of a fan-out stage (the corpus partitioning
     *         would be lost; refuse rather than wedge the stage).
     */
    std::optional<CrashResult> crashInstance(std::int64_t instanceId);

    /** Queries parked while the stage has no live instance. */
    std::size_t heldQueries() const { return holdQueue_.size(); }

    /**
     * Queries resident in this stage: waiting or in service at any
     * instance (draining included), parked in the hold queue, and — for
     * fan-out stages — counted once per query rather than per shard.
     */
    std::uint64_t residentQueries() const;

    /** Dispatch a query to an instance according to the policy. */
    void submit(QueryPtr q);

    /** Live (non-draining) instances. */
    std::vector<ServiceInstance *> instances() const;

    /**
     * Append the live instances to @p out — the allocation-free
     * variant for hot loops (per-query dispatch, per-interval scans)
     * that reuse a scratch vector instead of materializing a fresh
     * one per call.
     */
    void liveInstances(std::vector<ServiceInstance *> &out) const;

    /** All instances including draining ones (for traces). */
    std::vector<ServiceInstance *> allInstances() const;

    /** Append every instance, draining ones included, to @p out. */
    void allInstances(std::vector<ServiceInstance *> &out) const;

    ServiceInstance *findInstance(std::int64_t instanceId) const;

    std::size_t numLiveInstances() const;

    /** Sum of queue lengths over live instances. */
    std::size_t totalQueueLength() const;

    /** Globally unique ids are drawn from this shared counter. */
    static std::int64_t nextInstanceId();

  private:
    void onInstanceComplete(QueryPtr q);
    void reapDrained();
    void submitFanOut(QueryPtr q);

    int index_;
    std::string name_;
    Simulator *sim_;
    CmpChip *chip_;
    Dispatcher dispatcher_;
    StageKind kind_;
    StageCompletionCallback onComplete_;
    Telemetry *telemetry_ = nullptr;
    std::vector<std::unique_ptr<ServiceInstance>> pool_;
    int launchCounter_ = 0;
    /** Reused by submit() and submitFanOut() so per-query dispatch
     *  never allocates. */
    mutable std::vector<ServiceInstance *> liveScratch_;
    /** Queries parked during a crash outage (no live instance). */
    std::vector<PendingQuery> holdQueue_;
    /** True while arrivals must be parked instead of dispatched. */
    bool crashOutage_ = false;

    // Fan-out state.
    int referenceShards_ = 0;
    double shardCv_ = 0.0;
    /** Unit-mean lognormal of shardCv_, computed once. */
    LognormalParams shardLognormal_;
    Rng shardRng_{0x5eed5eedull};
    /** Queries sharded here whose last shard has not returned. */
    std::uint64_t fanOutResident_ = 0;
};

} // namespace pc

#endif // PC_APP_STAGE_H
