/**
 * @file
 * A service instance: one worker process pinned to one core.
 *
 * Each instance owns a FIFO query queue (paper §2.1) and is augmented
 * with the timing ability of the joint design: it stamps enqueue, start
 * and finish times into the query's hop record. Processing speed follows
 * the core's DVFS level; when the frequency changes mid-service the
 * in-flight query's completion is rescaled (progress-fraction model).
 */

#ifndef PC_APP_SERVICE_INSTANCE_H
#define PC_APP_SERVICE_INSTANCE_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "app/query.h"
#include "common/ring_queue.h"
#include "hal/chip.h"
#include "sim/simulator.h"

namespace pc {

class Counter;
class Histogram;
class Telemetry;

/**
 * A queued query together with its original enqueue timestamp. The
 * timestamp survives work stealing and withdraw redirection so the
 * queuing delay a query experienced is charged in full no matter which
 * instance finally serves it.
 *
 * workScale multiplies the stage demand for this entry; fan-out stages
 * use it to model per-shard work (corpus partitioning + leaf-to-leaf
 * variability). 1.0 for ordinary pipeline stages.
 */
struct PendingQuery
{
    QueryPtr query;
    SimTime enqueued;
    double workScale = 1.0;

    /**
     * Fan-out shard linkage, copied into the hop record so the
     * critical-path layer can tell shards of one dispatch apart.
     * -1/0 for ordinary pipeline entries; survives stealing, crash
     * re-dispatch and withdraw redirection like the timestamp does.
     */
    int shardIndex = -1;
    int shardCount = 0;
};

class ServiceInstance
{
  public:
    /** Invoked when a query finishes its service at this instance. */
    using CompletionCallback = std::function<void(QueryPtr)>;

    /**
     * @param id globally unique instance id (the "instance signature").
     * @param name human-readable name for traces, e.g. "QA_3".
     * @param stageIndex pipeline stage this instance belongs to.
     * @param coreId the dedicated core (already acquired by the stage).
     */
    ServiceInstance(std::int64_t id, std::string name, int stageIndex,
                    Simulator *sim, CmpChip *chip, int coreId,
                    CompletionCallback onComplete);

    ~ServiceInstance();

    ServiceInstance(const ServiceInstance &) = delete;
    ServiceInstance &operator=(const ServiceInstance &) = delete;

    std::int64_t id() const { return id_; }
    const std::string &name() const { return name_; }
    int stageIndex() const { return stageIndex_; }
    int coreId() const { return coreId_; }

    MHz frequency() const;
    int level() const;

    /** Append a query now; begins service immediately if idle. */
    void enqueue(QueryPtr q);

    /** Re-enqueue a stolen/redirected query keeping its timestamp. */
    void adopt(PendingQuery pending);

    /** Queries in the system at this instance (waiting + in service). */
    std::size_t queueLength() const;

    /** Queries waiting (excludes the one in service). */
    std::size_t waitingCount() const { return queue_.size(); }

    bool busy() const { return static_cast<bool>(current_); }
    bool idleAndEmpty() const { return !busy() && queue_.empty(); }

    /**
     * Remove the tail half of the waiting queue (instance boosting's
     * work stealing, §5.1).
     */
    std::vector<PendingQuery> stealHalfQueue();

    /** Remove the entire waiting queue (instance withdraw, §6.2). */
    std::vector<PendingQuery> drainWaiting();

    /**
     * Crash primitive: abort the in-flight service, if any, and hand
     * the query back for redispatch. The entry keeps its original
     * enqueue timestamp but loses all service progress (the work is
     * re-executed from scratch elsewhere); a wasted hop is stamped for
     * the critical-path layer but no busy time is credited and no
     * latency statistic is recorded. Returns nullopt when idle.
     */
    std::optional<PendingQuery> abortService();

    /** Stop accepting dispatches (checked by the stage's dispatcher). */
    void setDraining(bool d) { draining_ = d; }
    bool draining() const { return draining_; }

    /**
     * Cumulative busy time including the in-flight partial service,
     * used by the withdraw monitor's 20 % utilization rule.
     */
    SimTime totalBusyTime() const;

    std::uint64_t queriesServed() const { return served_; }

    /**
     * Instrument completed services: per-stage wait/serve latency
     * histograms ("app.stage<k>.wait_sec"/"serve_sec") and the
     * "app.stage<k>.hops_total" counter. nullptr detaches.
     */
    void setTelemetry(Telemetry *telemetry);

  private:
    void startNext();
    void finishCurrent();
    void onFreqChange(int oldLevel, int newLevel);

    /** Full service duration of the current query at frequency @p mhz. */
    double currentServiceSecAt(int mhz) const;

    std::int64_t id_;
    std::string name_;
    int stageIndex_;
    Simulator *sim_;
    CmpChip *chip_;
    int coreId_;
    CompletionCallback onComplete_;

    RingQueue<PendingQuery> queue_;

    // In-flight service bookkeeping.
    QueryPtr current_;
    HopRecord currentHop_;
    double currentScale_ = 1.0; // workScale of the in-flight entry
    // Interference inflation sampled once at service start (the
    // neighbour set is assumed quasi-stable over one service).
    double currentInterference_ = 1.0;
    double progress_ = 0.0;   // fraction of service completed
    SimTime lastResume_;      // when progress_ was last settled
    EventId completionEvent_ = Simulator::kInvalidEvent;

    bool draining_ = false;
    SimTime busyAccum_;
    std::uint64_t served_ = 0;

    // Cached at wiring time so the hot path is one branch + record.
    Histogram *waitHist_ = nullptr;
    Histogram *serveHist_ = nullptr;
    Counter *hops_ = nullptr;
};

} // namespace pc

#endif // PC_APP_SERVICE_INSTANCE_H
