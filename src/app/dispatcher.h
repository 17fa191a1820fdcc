/**
 * @file
 * Query dispatch (load balance) policies within one stage.
 *
 * The paper's stages balance load across their instance pool and the new
 * instance created by instance boosting participates via "load balance"
 * (§5.1). Join-shortest-queue is the default; round-robin and a
 * frequency-weighted variant are provided for experiments.
 */

#ifndef PC_APP_DISPATCHER_H
#define PC_APP_DISPATCHER_H

#include <memory>
#include <vector>

#include "app/service_instance.h"

namespace pc {

class Counter;
class Histogram;
class Telemetry;

enum class DispatchPolicy { RoundRobin, JoinShortestQueue, WeightedFastest };

class Dispatcher
{
  public:
    explicit Dispatcher(DispatchPolicy policy);

    /**
     * Pick the instance that should receive the next query. Draining
     * instances are excluded. @return nullptr if no instance is eligible.
     */
    ServiceInstance *
    pick(const std::vector<ServiceInstance *> &instances);

    DispatchPolicy policy() const { return policy_; }

    /**
     * Instrument picks: "dispatch.stage<k>.picks_total" plus a
     * "dispatch.stage<k>.queue_depth" histogram of the chosen
     * instance's queue length at dispatch time. nullptr detaches.
     */
    void setTelemetry(Telemetry *telemetry, int stageIndex);

  private:
    ServiceInstance *
    pickRoundRobin(const std::vector<ServiceInstance *> &eligible);
    static ServiceInstance *
    pickShortestQueue(const std::vector<ServiceInstance *> &eligible);
    static ServiceInstance *
    pickWeighted(const std::vector<ServiceInstance *> &eligible);

    DispatchPolicy policy_;
    std::size_t rrNext_ = 0;
    /** Scratch for pick()'s non-draining candidates. */
    std::vector<ServiceInstance *> eligible_;

    // Cached at wiring time so the hot path is one branch + increment.
    Counter *picks_ = nullptr;
    Histogram *queueDepth_ = nullptr;
};

} // namespace pc

#endif // PC_APP_DISPATCHER_H
