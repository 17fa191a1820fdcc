/**
 * @file
 * The multi-stage application: stages wired into a pipeline.
 *
 * A query submitted to the application flows through every stage in
 * order (Fig. 1/3). When it exits the last stage, its accumulated hop
 * records — the extended query structure — are reported to the command
 * center endpoint over the RPC bus, completing the service/query joint
 * design (§4.1).
 */

#ifndef PC_APP_PIPELINE_H
#define PC_APP_PIPELINE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/stage.h"
#include "rpc/bus.h"

namespace pc {

/** Static description of one stage for application registration. */
struct StageSpec
{
    std::string name;
    int initialInstances = 1;
    int initialLevel = 0;
    DispatchPolicy dispatch = DispatchPolicy::JoinShortestQueue;

    /** Pipeline (default) or fan-out/fan-in (Web Search leaves). */
    StageKind kind = StageKind::Pipeline;

    /**
     * Fan-out only: leaf count the per-shard demand is quoted at
     * (0 = use initialInstances) and leaf-to-leaf variability.
     */
    int referenceShards = 0;
    double shardCv = 0.0;
};

/** Bus message carrying a completed query's latency statistics. */
class QueryCompletedMessage : public Message
{
  public:
    explicit QueryCompletedMessage(QueryPtr q) : query(std::move(q)) {}

    const char *type() const override { return "query-completed"; }

    QueryPtr query;
};

class MultiStageApp
{
  public:
    /**
     * Build the pipeline and launch the initial instances of each
     * stage. Fails fatally if the chip lacks cores for the layout.
     *
     * @param telemetry optional observability sink; wired into every
     *        stage before the initial launches so instance trace tracks
     *        appear in declaration order.
     */
    MultiStageApp(Simulator *sim, CmpChip *chip, MessageBus *bus,
                  std::string name, const std::vector<StageSpec> &specs,
                  Telemetry *telemetry = nullptr);

    const std::string &name() const { return name_; }

    int numStages() const { return static_cast<int>(stages_.size()); }
    Stage &stage(int i);
    const Stage &stage(int i) const;

    /** Enter the pipeline at stage 0. */
    void submit(QueryPtr q);

    /**
     * This app's run-scoped query slab: the load generator and the
     * spray build the app's queries in it, and the completion reports
     * take their message blocks from it.
     */
    QuerySlab &querySlab() { return *slab_; }

    /**
     * Register the command-center endpoint that receives the
     * QueryCompletedMessage for every finished query.
     */
    void setReportEndpoint(EndpointId endpoint) { report_ = endpoint; }

    /**
     * Ship reports as serialized wire bytes (WireStatsMessage) instead
     * of in-process object messages — the distributed deployment mode
     * where stats cross address spaces (§8.5).
     */
    void setWireReports(bool wire) { wireReports_ = wire; }
    bool wireReports() const { return wireReports_; }

    /** Optional local sink invoked on completion (experiment stats). */
    void setCompletionSink(std::function<void(QueryPtr)> sink);

    /** Every instance across stages, live and draining. */
    std::vector<ServiceInstance *> allInstances() const;

    std::uint64_t submitted() const { return submitted_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t inFlight() const { return submitted_ - completed_; }

    /**
     * Queries currently inside the pipeline, summed over stages
     * (waiting, in service, or parked in a crash hold queue). Routing
     * between stages is synchronous, so at any event boundary
     * submitted() == completed() + residentQueries() — the conservation
     * invariant the chaos harness asserts.
     */
    std::uint64_t residentQueries() const;

  private:
    void onStageComplete(int stageIndex, QueryPtr q);

    /** Dispatch to the first non-skipped stage at or after @p stageIndex. */
    void routeToStage(int stageIndex, QueryPtr q);

    Simulator *sim_;
    MessageBus *bus_;
    std::string name_;
    QuerySlab::Owner slab_ = QuerySlab::create();
    std::vector<std::unique_ptr<Stage>> stages_;
    EndpointId report_ = 0;
    bool wireReports_ = false;
    std::function<void(QueryPtr)> sink_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace pc

#endif // PC_APP_PIPELINE_H
