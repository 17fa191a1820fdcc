/**
 * @file
 * The one run path: a fleet of node replicas on the conservative
 * time-window engine. A single-node scenario is a fleet of one.
 *
 * Each node group owns a full node stack — its own Simulator (owned by
 * the ShardedEngine), chip, bus, application, budget, command center,
 * fault injector, RAPL reader, load generator and telemetry bundle —
 * all built by the one builder in ExperimentRunner::run. Groups
 * interact in two ways, each with interNodeLatency delay, which is
 * therefore the engine's lookahead:
 *
 *   - The front-end spray: a scenario-configured fraction of each
 *     group's arrivals is served by another group. It is open loop,
 *     so it needs no sync at all: every group's generator shares its
 *     drawn-ahead ArrivalStream, and a SprayFeed lets each destination
 *     insert the arrivals it serves after every window and build the
 *     queries itself.
 *   - With a cluster policy, the arbiter's reports and grants. They
 *     depend on simulation state, so they are posted, and each channel
 *     declares its send ticks: the engine syncs only the windows that
 *     hold one — two per rebalance round.
 *
 * A single node has neither, so the engine runs its one simulator
 * straight through, and the run writes the plain single-node documents
 * where a fleet writes "powerchief-sharded-v1" envelopes.
 *
 * Determinism: the logical partition (nodeGroups) is part of the
 * scenario; the worker count (--shards / setShards) only picks which
 * thread executes which group. Every per-group RNG stream, query-id
 * range and fault seed derives from (scenario seed, group index), each
 * group's events run on its own single-threaded simulator, and the
 * merge below walks groups in fixed index order — so every RunResult
 * field and every artifact byte is identical at any worker count.
 *
 * Raw instance ids (Stage::nextInstanceId) ARE allocation-order
 * dependent when groups boost instances concurrently — that is exactly
 * why no artifact may embed them. TraceSink and AuditLog both remap to
 * sink-local ids, and instance *names* come from a per-stage launch
 * counter; a fleet's merged result keys per-instance series as
 * "n<group>/<name>".
 */

#include "exp/runner.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/arbiter.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/command_center.h"
#include "core/cuttlesys.h"
#include "core/fastcap.h"
#include "faults/injector.h"
#include "hal/rapl.h"
#include "obs/telemetry.h"
#include "rpc/bus.h"
#include "sim/sharded_engine.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "workloads/profiler.h"

namespace pc {

namespace {

/** @p sum / @p n, or 0 when nothing was counted. */
double
meanOf(double sum, std::uint64_t n)
{
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** Derive a summary's means from its sums and counts. */
void
setMeans(RunAuditSummary &sum)
{
    sum.mapePct = meanOf(sum.absPctErrSum, sum.scored);
    sum.mapeFreqPct = meanOf(sum.absPctErrSumFreq, sum.scoredFreq);
    sum.mapeInstPct = meanOf(sum.absPctErrSumInst, sum.scoredInst);
}

void
setMeans(RunCritPathSummary &sum)
{
    sum.agreementRate = meanOf(static_cast<double>(sum.agreeIntervals),
                               sum.scoredIntervals);
    sum.meanShorteningPct =
        meanOf(sum.shorteningSumPct, sum.shorteningCount);
    sum.stageShare.assign(sum.stageShareSum.size(), 0.0);
    for (std::size_t s = 0; s < sum.stageShare.size(); ++s)
        sum.stageShare[s] = meanOf(sum.stageShareSum[s], sum.stagePaths[s]);
}

/**
 * The seed of node group @p g's load generator, fault injector and
 * spray router: the scenario seed itself for a single node, a
 * golden-ratio mix of the group index for each node of a fleet.
 */
std::uint64_t
groupSeed(const Scenario &sc, int g)
{
    if (sc.nodeGroups == 1)
        return sc.seed;
    return sc.seed ^
        (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(g) + 1));
}

/**
 * The SLO latency target: the configured one, else the scenario's QoS
 * target, else 3x the summed per-stage mean service times (a "healthy
 * pipeline" envelope independent of the realized load).
 */
double
sloTargetSec(const SloConfig &slo, const Scenario &sc)
{
    if (slo.targetSec > 0.0)
        return slo.targetSec;
    if (sc.qosTargetSec > 0.0)
        return sc.qosTargetSec;
    double serviceSum = 0.0;
    for (const auto &stage : sc.workload.stages())
        serviceSum += stage.meanServiceSec;
    return 3.0 * serviceSum;
}

/** Node → arbiter demand snapshot, riding node 0's bus so the fault
 *  fabric (drops, duplicates, reordering) applies to cluster traffic
 *  like any other endpoint. */
struct ClusterReportMsg final : Message
{
    explicit ClusterReportMsg(const ClusterNodeReport &r) : report(r) {}
    const char *type() const override { return "cluster.report"; }
    ClusterNodeReport report;
};

/** Arbiter → node cap retarget, riding the destination node's bus. */
struct ClusterGrantMsg final : Message
{
    explicit ClusterGrantMsg(const ClusterGrant &g) : grant(g) {}
    const char *type() const override { return "cluster.grant"; }
    ClusterGrant grant;
};

/**
 * One group's sprayed arrivals, read from its generator's drawn-ahead
 * stream. After each window every other group inserts the arrivals it
 * serves into its own heap, one interNodeLatency after their source
 * time, and builds each Query itself.
 */
class SprayFeed final : public ShardedEngine::Feed
{
  public:
    /** @p gen must have started; @p apps holds every group's app. */
    SprayFeed(LoadGenerator &gen, int self,
              std::vector<MultiStageApp *> apps, SimTime latency)
        : gen_(gen), apps_(std::move(apps)), latency_(latency)
    {
        readers_.resize(apps_.size());
        for (int d = 0; d < static_cast<int>(apps_.size()); ++d)
            if (d != self)
                readers_[static_cast<std::size_t>(d)].emplace(
                    gen.stream().reader(d, d));
    }

    std::uint64_t sent() const override { return gen_.generated(); }

    void
    drawThrough(SimTime until) override
    {
        gen_.stream().drawThrough(until);
    }

    std::uint64_t
    deliver(int to, Simulator &sim, SimTime until,
            std::uint64_t limit) override
    {
        ArrivalStream::Reader &reader =
            *readers_[static_cast<std::size_t>(to)];
        MultiStageApp *app = apps_[static_cast<std::size_t>(to)];
        std::uint64_t delivered = 0;
        for (const ArrivalStream::Arrival *a = reader.next(until);
             a && a->seq < limit; a = reader.next(until)) {
            // Built here, on the destination's thread, in its own slab.
            QueryPtr q = app->querySlab().make(a->id, a->t, a->demands);
            sim.scheduleAt(a->t + latency_,
                           [app, q = std::move(q)]() mutable {
                               app->submit(std::move(q));
                           });
            reader.pop();
            ++delivered;
        }
        return delivered;
    }

  private:
    LoadGenerator &gen_;
    std::vector<MultiStageApp *> apps_;
    SimTime latency_;
    /** One per destination group; none for this group itself. */
    std::vector<std::optional<ArrivalStream::Reader>> readers_;
};

/** Everything one node group owns. Heap-allocated so the completion
 *  sink's captured pointer stays stable. */
struct NodeStack
{
    Simulator *sim = nullptr; // owned by the engine
    std::optional<Telemetry> tel;
    std::optional<CmpChip> chip;
    std::optional<MessageBus> bus;
    std::optional<MultiStageApp> app;
    std::optional<PowerBudget> budget;
    std::optional<CommandCenter> center;
    std::optional<FaultInjector> injector;
    std::optional<RaplReader> rapl;
    std::optional<LoadGenerator> gen;
    std::unique_ptr<SprayFeed> spray;

    // Completion statistics, ignoring the warmup prefix.
    ExactPercentile latency;
    StreamingStats latencyStats;
    std::vector<StreamingStats> queuingByStage;
    std::vector<StreamingStats> servingByStage;
    StreamingStats power;
    Joules energyBefore;

    // A fleet node's post-warmup completions, buffered for the replay;
    // completion i's per-stage split is completionSpans[i * stages...].
    TimeSeries completionLat{"latency"};
    std::vector<StageSpan> completionSpans;

    TimeSeries powerSeries{"power"};
    std::vector<TimeSeries> stageInstanceCounts;
    std::map<std::string, TimeSeries> instanceFrequencyGHz;

    Histogram *e2eHist = nullptr;
    std::vector<Histogram *> stageWaitHist;
    std::vector<Histogram *> stageServeHist;
    std::vector<StageSpan> spans; // per-query scratch

    // Online SLO burn gauges, set per completion; only on a node whose
    // registry is written. A single node reads the run-level tracker; a
    // fleet node feeds its own (RunResult::slo comes from the replay).
    std::optional<SloTracker> nodeSlo;
    const SloTracker *slo = nullptr;
    Gauge *sloFastGauge = nullptr;
    Gauge *sloSlowGauge = nullptr;

    // Cluster sequence state: one counter per direction, so duplicated
    // or reordered bus deliveries can never resurrect a stale cap (the
    // node side) or a stale demand snapshot (the arbiter side).
    std::uint64_t clusterReportSeq = 0;
    std::uint64_t clusterGrantApplied = 0;
};

/**
 * Visit the union of per-group completion streams in global
 * (time, group) order — the deterministic merge order every
 * order-sensitive consumer (SLO tracker, latency series, attribution)
 * replays under.
 */
template <typename Fn>
void
mergeByTime(const std::vector<const std::vector<TimeSeries::Point> *>
                &streams,
            Fn &&fn)
{
    std::vector<std::size_t> cursor(streams.size(), 0);
    while (true) {
        int best = -1;
        for (std::size_t g = 0; g < streams.size(); ++g) {
            if (cursor[g] >= streams[g]->size())
                continue;
            if (best < 0 ||
                (*streams[g])[cursor[g]].t <
                    (*streams[static_cast<std::size_t>(best)])
                        [cursor[static_cast<std::size_t>(best)]].t)
                best = static_cast<int>(g);
        }
        if (best < 0)
            return;
        const auto b = static_cast<std::size_t>(best);
        fn(b, cursor[b]);
        ++cursor[b];
    }
}

/**
 * Write one "powerchief-sharded-v1" envelope: the per-group documents
 * of a single-node artifact, in group order, under a fixed header. The
 * per-group documents are the exact bytes the single-node writers
 * produce, so existing parsers handle each element unchanged.
 */
void
writeEnvelope(const std::string &path, const char *artifact,
              const std::string &scenario,
              const std::vector<std::string> &docs,
              const std::string &extra = "")
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good())
        fatal("cannot write %s file '%s'", artifact, path.c_str());
    out << "{\"schema\":\"powerchief-sharded-v1\",\"artifact\":\""
        << artifact << "\",\"scenario\":" << JsonValue(scenario).dump()
        << ",\"nodes\":" << docs.size();
    if (!extra.empty())
        out << "," << extra;
    out << ",\"shards\":[\n";
    for (std::size_t i = 0; i < docs.size(); ++i) {
        if (i)
            out << ",\n";
        std::string doc = docs[i];
        while (!doc.empty() &&
               (doc.back() == '\n' || doc.back() == '\r'))
            doc.pop_back();
        out << doc;
    }
    out << "\n]}\n";
}

} // namespace

double
RunResult::improvement(double baseline, double value)
{
    if (value <= 0.0)
        return 0.0;
    return baseline / value;
}

ExperimentRunner::ExperimentRunner(bool recordTraces,
                                   SimTime sampleInterval,
                                   bool attribution, bool collectAudit,
                                   SloConfig slo, bool collectCritPath)
    : recordTraces_(recordTraces), sampleInterval_(sampleInterval),
      attribution_(attribution), collectAudit_(collectAudit),
      slo_(std::move(slo)), collectCritPath_(collectCritPath)
{
}

std::unique_ptr<ControlPolicy>
makePolicyFor(const Scenario &sc)
{
    switch (sc.policy) {
      case PolicyKind::StageAgnostic:
        return std::make_unique<StageAgnosticPolicy>();
      case PolicyKind::FreqBoost:
        return std::make_unique<FreqBoostPolicy>();
      case PolicyKind::InstBoost:
        return std::make_unique<InstBoostPolicy>();
      case PolicyKind::PowerChief:
        return std::make_unique<PowerChiefPolicy>();
      case PolicyKind::FixedStage:
        return std::make_unique<FixedStageBoostPolicy>(
            sc.fixedStage, sc.fixedTechnique);
      case PolicyKind::Pegasus:
        return std::make_unique<PegasusPolicy>(sc.qosTargetSec,
                                               sc.qosUseTail);
      case PolicyKind::PowerChiefConserve:
        return std::make_unique<PowerChiefConservePolicy>(
            sc.qosTargetSec, sc.qosUseTail);
      case PolicyKind::FastCap:
        return std::make_unique<FastCapPolicy>();
      case PolicyKind::CuttleSys: {
        // Give the config search room up to an even share of the chip,
        // clamped so one stage can never crowd out the others.
        const int stages = std::max<int>(
            1, static_cast<int>(sc.initialCounts.size()));
        const int maxPerStage =
            std::clamp(sc.numCores / stages, 1, 8);
        return std::make_unique<CuttleSysPolicy>(maxPerStage);
      }
      case PolicyKind::Count:
        break;
    }
    fatal("unknown policy kind");
}

RunAuditSummary
summarizeAudit(const AuditLog &audit)
{
    RunAuditSummary sum;
    sum.collected = true;
    sum.flips = audit.flips();
    for (const auto &rec : audit.records()) {
        switch (rec.kind) {
          case AuditDecisionKind::Select:
            ++sum.selects;
            if (!rec.scored)
                break;
            ++sum.scored;
            sum.absPctErrSum += rec.absPctErr;
            if (rec.chosen == AuditBoostKind::Frequency) {
                ++sum.scoredFreq;
                sum.absPctErrSumFreq += rec.absPctErr;
            } else if (rec.chosen == AuditBoostKind::Instance) {
                ++sum.scoredInst;
                sum.absPctErrSumInst += rec.absPctErr;
            }
            break;
          case AuditDecisionKind::Recycle: ++sum.recycles; break;
          case AuditDecisionKind::Withdraw: ++sum.withdraws; break;
          case AuditDecisionKind::StaleSkip: ++sum.staleSkips; break;
          case AuditDecisionKind::FastCapPlan:
          case AuditDecisionKind::CuttleSysPlan:
            ++sum.plans;
            break;
          case AuditDecisionKind::Misboost:
            ++sum.misboosts;
            break;
          case AuditDecisionKind::ClusterRebalance:
            ++sum.clusterRebalances;
            break;
          case AuditDecisionKind::ObsAlert:
          case AuditDecisionKind::Count:
            break;
        }
    }
    setMeans(sum);
    return sum;
}

void
RunAuditSummary::merge(const RunAuditSummary &node)
{
    collected = collected || node.collected;
    scored += node.scored;
    flips += node.flips;
    selects += node.selects;
    recycles += node.recycles;
    withdraws += node.withdraws;
    staleSkips += node.staleSkips;
    plans += node.plans;
    misboosts += node.misboosts;
    clusterRebalances += node.clusterRebalances;
    absPctErrSum += node.absPctErrSum;
    absPctErrSumFreq += node.absPctErrSumFreq;
    absPctErrSumInst += node.absPctErrSumInst;
    scoredFreq += node.scoredFreq;
    scoredInst += node.scoredInst;
    setMeans(*this);
}

void
checkRunInvariants(const MultiStageApp &app, const PowerBudget &budget,
                   int node)
{
    const std::string where =
        node < 0 ? "" : " on node " + std::to_string(node);
    if (app.completed() + app.residentQueries() != app.submitted())
        fatal("run broke query conservation%s: "
              "%llu submitted != %llu completed + %llu resident",
              where.c_str(),
              static_cast<unsigned long long>(app.submitted()),
              static_cast<unsigned long long>(app.completed()),
              static_cast<unsigned long long>(app.residentQueries()));
    for (const auto *inst : app.allInstances()) {
        if (inst->draining())
            continue;
        if (budget.levelOf(inst->id()) != inst->level())
            fatal("run broke the budget ledger%s: instance %s reserved "
                  "level %d but runs at %d",
                  where.c_str(), inst->name().c_str(),
                  budget.levelOf(inst->id()), inst->level());
    }
}

RunCritPathSummary
summarizeCritPath(const CritPathCollector &cp)
{
    RunCritPathSummary sum;
    sum.collected = true;
    sum.queries = cp.profiledQueries();
    sum.scoredIntervals = cp.scoredIntervals();
    sum.agreeIntervals = cp.agreeIntervals();
    sum.boostIntervals = cp.boostIntervals();
    sum.misboosts = cp.misboosts();
    sum.shorteningSumPct = cp.shorteningSumPct();
    sum.shorteningCount = cp.shorteningCount();
    CritPathCollector::StageShareTotals totals = cp.stageShareTotals();
    sum.stageShareSum = std::move(totals.shareSum);
    sum.stagePaths = std::move(totals.paths);
    setMeans(sum);
    return sum;
}

void
RunCritPathSummary::merge(const RunCritPathSummary &node)
{
    collected = collected || node.collected;
    queries += node.queries;
    scoredIntervals += node.scoredIntervals;
    agreeIntervals += node.agreeIntervals;
    boostIntervals += node.boostIntervals;
    misboosts += node.misboosts;
    shorteningSumPct += node.shorteningSumPct;
    shorteningCount += node.shorteningCount;
    if (stageShareSum.size() < node.stageShareSum.size()) {
        stageShareSum.resize(node.stageShareSum.size(), 0.0);
        stagePaths.resize(node.stagePaths.size(), 0);
    }
    for (std::size_t s = 0; s < node.stageShareSum.size(); ++s) {
        stageShareSum[s] += node.stageShareSum[s];
        stagePaths[s] += node.stagePaths[s];
    }
    setMeans(*this);
}

RunResult
ExperimentRunner::run(const Scenario &sc,
                      const TelemetryConfig *telemetry) const
{
    // Topology knobs are validated before any system is built, with
    // the offending field named — same fatal style the CLI and config
    // loader use at parse time, so a bad scenario dies identically no
    // matter which door it came in through. The positive
    // interNodeLatency it checks IS the engine's lookahead.
    if (const std::string err = scenarioTopologyError(sc); !err.empty())
        fatal("scenario '%s': %s", sc.name.c_str(), err.c_str());
    if (sc.initialCounts.empty())
        fatal("scenario '%s' has no initial layout", sc.name.c_str());
    const int groups = sc.nodeGroups;

    // Each node owns its telemetry, so concurrent sweep runs never
    // share mutable observability state. Audit and critpath collection
    // ride on the same bundle: they flip a switch on a copy of the
    // caller's config (or a fresh one) without touching any output.
    TelemetryConfig effective = telemetry ? *telemetry
                                          : TelemetryConfig{};
    if (collectAudit_)
        effective.auditCollect = true;
    if (collectCritPath_)
        effective.critpathCollect = true;

    // What only a single node supports, refused before anything is
    // built: one probe per controller, and the formats that have no
    // envelope.
    if (groups > 1) {
        if (intervalProbe_)
            fatal("scenario '%s': setIntervalProbe needs node-groups 1 "
                  "(one probe cannot observe %d concurrent controllers "
                  "deterministically)",
                  sc.name.c_str(), groups);
        if (effective.timeseriesEnabled() &&
            effective.metricsFormat == "openmetrics")
            fatal("scenario '%s': node-groups %d writes --timeseries-out "
                  "as a JSON envelope; --metrics-format openmetrics "
                  "needs node-groups 1",
                  sc.name.c_str(), groups);
        if (effective.metricsCsv())
            fatal("scenario '%s': node-groups %d writes --metrics-out "
                  "as a JSON envelope; a .csv --metrics-out needs "
                  "node-groups 1",
                  sc.name.c_str(), groups);
    }

    int workers = shards_;
    if (workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw > 0 ? static_cast<int>(hw) : 1;
    }

    // The cluster budget tree: with a cluster policy the fleet-wide
    // cap is owned by the arbiter and every node starts at an equal
    // share of it; without one each node keeps the full scenario
    // budget.
    const bool clusterOn = sc.clusterPolicy != ClusterPolicyKind::None;
    const double clusterCapWatts = sc.clusterBudget.value() > 0.0
        ? sc.clusterBudget.value()
        : sc.powerBudget.value() * static_cast<double>(groups);
    const Watts nodeBudget = clusterOn
        ? Watts(clusterCapWatts / static_cast<double>(groups))
        : sc.powerBudget;

    RunResult result;
    result.scenario = sc.name;

    // Cross-group traffic: the spray is read ahead from each group's
    // arrival stream and never posts; the arbiter's reports and grants
    // declare their schedules below. No other channel ever posts.
    ShardedEngine engine(groups, sc.interNodeLatency);
    for (int from = 0; from < groups; ++from)
        for (int to = 0; to < groups; ++to)
            if (from != to)
                engine.declare(from, to,
                               ShardedEngine::PostSchedule::never());

    const PowerModel model = PowerModel::haswell();
    const auto &ladder = model.ladder();
    const int level = sc.initialLevel == -1 ? ladder.midLevel()
        : sc.initialLevel == -2              ? ladder.maxLevel()
                                             : sc.initialLevel;

    // One offline profile serves every group: same workload, same
    // seed, read-only during the run.
    const OfflineProfiler profiler;
    const SpeedupBook speedups =
        profiler.profileWorkload(sc.workload, model, sc.seed ^ 0x5eedll);

    const bool spray = groups > 1 && sc.remoteFraction > 0.0;
    const int numStages = sc.workload.numStages();

    // The order-sensitive consumers — the SLO report, the latency series
    // and the tail attribution — take every node's post-warmup
    // completions in global (time, node) order. A single node's own
    // stream is that order, so it feeds them as it completes; a fleet's
    // nodes buffer theirs for the replay after the run.
    std::optional<SloTracker> sloTracker;
    if (slo_.enabled)
        sloTracker.emplace(slo_, sloTargetSec(slo_, sc));
    std::optional<TailAttributionCollector> attribution;
    if (attribution_)
        attribution.emplace(numStages);
    const auto consume = [this, &sloTracker, &attribution, &result](
                             SimTime t, double sec,
                             const std::vector<StageSpan> &spans) {
        if (sloTracker)
            sloTracker->observe(t, sec);
        if (recordTraces_)
            result.latencySeries.append(t, sec);
        if (attribution)
            attribution->addQuery(sec, spans);
    };
    const bool online = groups == 1;
    const bool replay =
        !online && (recordTraces_ || slo_.enabled || attribution_);
    // RunResult::slo comes from the run-level tracker above; burn gauges
    // exist only where the registry is written. A fleet node needs its
    // own tracker for them, a single node's stream is the run's.
    const bool sloGauges = slo_.enabled &&
        (effective.metricsEnabled() || effective.timeseriesEnabled());

    // Build and start the node stacks sequentially in group order
    // (instance-id allocation during construction stays deterministic).
    std::vector<std::unique_ptr<NodeStack>> stacks;
    stacks.reserve(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
        auto stack = std::make_unique<NodeStack>();
        NodeStack &st = *stack;
        st.sim = &engine.shard(g);
        if (effective.anyEnabled())
            st.tel.emplace(effective);
        Telemetry *tel = st.tel ? &*st.tel : nullptr;

        st.chip.emplace(st.sim, &model, sc.numCores);
        st.chip->setInterference(sc.interference);
        st.bus.emplace(st.sim);

        auto specs = sc.workload.layout(sc.initialCounts, level);
        if (!sc.initialLevels.empty()) {
            if (sc.initialLevels.size() != specs.size())
                fatal("scenario '%s': initialLevels size mismatch",
                      sc.name.c_str());
            for (std::size_t i = 0; i < specs.size(); ++i)
                specs[i].initialLevel = sc.initialLevels[i];
        }
        for (auto &spec : specs)
            spec.dispatch = sc.dispatch;
        st.app.emplace(st.sim, &*st.chip, &*st.bus, sc.workload.name(),
                       specs, tel);
        st.app->setWireReports(sc.wireReports);

        st.budget.emplace(nodeBudget, &model);
        if (clusterOn) {
            // Grants land on this endpoint; the dynamic_cast guards
            // against fault-replaced payloads and the seq guard against
            // duplicated or reordered deliveries.
            st.bus->registerEndpoint(
                "cluster/cap", [stp = &st](const MessagePtr &m) {
                    const auto *msg =
                        dynamic_cast<const ClusterGrantMsg *>(m.get());
                    if (!msg || msg->grant.targetCapWatts <= 0.0)
                        return;
                    if (msg->grant.seq <= stp->clusterGrantApplied)
                        return;
                    stp->clusterGrantApplied = msg->grant.seq;
                    stp->budget->setTargetCap(
                        Watts(msg->grant.targetCapWatts));
                });
        }
        st.center.emplace(
            st.sim, &*st.bus, &*st.chip, &*st.app, &*st.budget,
            &speedups, sc.control, makePolicyFor(sc),
            sc.metricFactory ? sc.metricFactory() : nullptr,
            sc.recycleFactory ? sc.recycleFactory() : nullptr);
        st.center->setTelemetry(tel);
        if (intervalProbe_)
            st.center->setIntervalCallback(intervalProbe_);
        st.center->start();

        // Fault-injection layer (chaos runs only). Armed before any load
        // arrives; an inactive plan constructs nothing at all.
        const std::uint64_t seed = groupSeed(sc, g);
        if (sc.faults.active) {
            st.injector.emplace(st.sim, &*st.bus, &*st.app, &*st.chip,
                                &*st.budget, sc.faults, seed, tel);
            st.injector->arm();
        }

        // End-to-end latency histograms mirror the printed RunResult
        // numbers: same samples, same warmup filter, so a single node's
        // dumped p99 matches p99LatencySec exactly.
        if (tel) {
            MetricsRegistry &metrics = tel->metrics();
            st.e2eHist = &metrics.histogram("latency.e2e_sec");
            for (int s = 0; s < numStages; ++s) {
                const std::string prefix =
                    "latency.stage" + std::to_string(s) + ".";
                st.stageWaitHist.push_back(
                    &metrics.histogram(prefix + "wait_sec"));
                st.stageServeHist.push_back(
                    &metrics.histogram(prefix + "serve_sec"));
            }
        }
        if (sloGauges) {
            if (online) {
                st.slo = &*sloTracker;
            } else {
                st.nodeSlo.emplace(slo_, sloTargetSec(slo_, sc));
                st.slo = &*st.nodeSlo;
            }
            st.sloFastGauge = &tel->metrics().gauge("slo.fast_burn");
            st.sloSlowGauge = &tel->metrics().gauge("slo.slow_burn");
        }

        st.queuingByStage.assign(
            static_cast<std::size_t>(numStages), StreamingStats{});
        st.servingByStage.assign(
            static_cast<std::size_t>(numStages), StreamingStats{});

        st.app->setCompletionSink([this, &sc, stp = &st, &consume, online,
                                   replay, numStages](const QueryPtr &q) {
            NodeStack &stack = *stp;
            if (stack.tel) {
                stack.tel->trace().recordQueryHops(*q);
                if (auto *critpath = stack.tel->critpath())
                    critpath->observeQuery(stack.sim->now(), *q,
                                           q->arrival() >= sc.warmup);
            }
            if (q->arrival() < sc.warmup)
                return;
            const double sec = q->endToEnd().toSec();
            stack.latency.add(sec);
            stack.latencyStats.add(sec);
            if (stack.nodeSlo)
                stack.nodeSlo->observe(stack.sim->now(), sec);
            if (stack.e2eHist)
                stack.e2eHist->add(sec);
            if (attribution_)
                stack.spans.assign(static_cast<std::size_t>(numStages),
                                   StageSpan{});
            for (std::size_t i = 0; i < q->numHops(); ++i) {
                const HopRecord hop = q->hop(i);
                // Wasted hops (aborted service; faults layer) carry no
                // latency contribution — the query was re-dispatched
                // and the replacement hop holds the real split.
                if (hop.wasted)
                    continue;
                const auto s = static_cast<std::size_t>(hop.stageIndex);
                stack.queuingByStage[s].add(hop.queuing().toSec());
                stack.servingByStage[s].add(hop.serving().toSec());
                if (stack.e2eHist) {
                    stack.stageWaitHist[s]->add(hop.queuing().toSec());
                    stack.stageServeHist[s]->add(hop.serving().toSec());
                }
                if (attribution_) {
                    stack.spans[s].queuingSec += hop.queuing().toSec();
                    stack.spans[s].servingSec += hop.serving().toSec();
                }
            }
            if (online) {
                consume(stack.sim->now(), sec, stack.spans);
            } else if (replay) {
                stack.completionLat.append(stack.sim->now(), sec);
                stack.completionSpans.insert(stack.completionSpans.end(),
                                             stack.spans.begin(),
                                             stack.spans.end());
            }
            if (stack.slo) {
                stack.sloFastGauge->set(stack.slo->fastBurn());
                stack.sloSlowGauge->set(stack.slo->slowBurn());
            }
        });

        // Power measurement through the RAPL code path.
        st.rapl.emplace(&*st.chip);
        if (st.injector)
            st.rapl->setFaultHook(st.injector->raplFaultHook());
        if (recordTraces_) {
            st.stageInstanceCounts.assign(
                static_cast<std::size_t>(numStages),
                TimeSeries("instances"));
        }
        st.sim->schedulePeriodic(
            sampleInterval_, sampleInterval_, [this, &sc, stp = &st]() {
                NodeStack &stack = *stp;
                const double watts =
                    stack.rapl->windowPower().value();
                if (stack.sim->now() >= sc.warmup)
                    stack.power.add(watts);
                if (!recordTraces_)
                    return;
                stack.powerSeries.append(stack.sim->now(), watts);
                for (int s = 0; s < stack.app->numStages(); ++s) {
                    const auto live = stack.app->stage(s).instances();
                    stack
                        .stageInstanceCounts[static_cast<std::size_t>(
                            s)]
                        .append(stack.sim->now(),
                                static_cast<double>(live.size()));
                    for (const auto *inst : live) {
                        auto [it, inserted] =
                            stack.instanceFrequencyGHz.try_emplace(
                                inst->name(), TimeSeries(inst->name()));
                        it->second.append(stack.sim->now(),
                                          inst->frequency().toGHz());
                    }
                }
            });

        // Periodic registry snapshot feeding the dumped TimeSeries. A
        // pure observer event: it reads state only, so the simulation
        // unfolds identically with or without it.
        if (tel && tel->config().metricsEnabled()) {
            const SimTime interval = tel->config().metricsInterval;
            st.sim->schedulePeriodic(interval, interval,
                                     [stp = &st]() {
                NodeStack &stack = *stp;
                stack.tel->metrics().snapshot(
                    stack.sim->now(),
                    {{"queries.submitted",
                      static_cast<double>(stack.app->submitted())},
                     {"queries.completed",
                      static_cast<double>(stack.app->completed())}});
            });
        }

        // Per-group load skew (empty = uniform): the demand asymmetry
        // a demand-driven cluster split exploits under a tight cap.
        st.gen.emplace(st.sim, &*st.app, &sc.workload,
                       sc.groupLoadScale.empty()
                           ? sc.load
                           : sc.load.scaled(
                                 sc.groupLoadScale
                                     [static_cast<std::size_t>(g)]),
                       seed, ladder.freqAt(0).value());
        // Group g owns query ids (g<<40, (g+1)<<40] — globally unique
        // without any cross-group coordination.
        st.gen->setQueryIdBase(static_cast<std::int64_t>(g) << 40);
        if (spray) {
            // Both variates are drawn for every arrival, so the stream
            // consumed per arrival is fixed under any remoteFraction.
            st.gen->share(g, groups,
                          [rng = Rng(seed ^ 0xf00dfeedcafe1234ull),
                           fraction = sc.remoteFraction, g,
                           groups]() mutable {
                              const double u = rng.uniform(0.0, 1.0);
                              auto dst = static_cast<int>(
                                  rng.uniformInt(0, groups - 2));
                              if (u >= fraction)
                                  return g;
                              // Uniform over the OTHER groups.
                              return dst >= g ? dst + 1 : dst;
                          });
        }
        st.gen->start(sc.duration);
        st.energyBefore = st.chip->totalEnergy();

        stacks.push_back(std::move(stack));
    }

    // ---- The cluster arbiter (scenarios with a clusterPolicy). ----
    // It lives on node 0's simulator and owns the fleet cap; reports
    // and grants ride each node's MessageBus (so the fault fabric
    // applies) and cross shards through engine.post at the
    // interNodeLatency lookahead.
    std::unique_ptr<ClusterArbiter> arbiter;
    if (clusterOn) {
        NodeStack &root = *stacks[0];
        ClusterArbiterConfig clusterCfg;
        clusterCfg.capWatts = clusterCapWatts;
        clusterCfg.rebalanceInterval = sc.rebalanceInterval;
        arbiter = std::make_unique<ClusterArbiter>(
            &engine.shard(0), groups, clusterCfg,
            makeClusterPolicy(sc.clusterPolicy),
            root.tel ? &root.tel->audit() : nullptr,
            root.tel ? &root.tel->metrics() : nullptr);
        MessageBus *rootBus = &*root.bus;
        rootBus->registerEndpoint(
            "cluster/arbiter",
            [arb = arbiter.get()](const MessagePtr &m) {
                const auto *msg =
                    dynamic_cast<const ClusterReportMsg *>(m.get());
                if (!msg)
                    return; // fault-replaced payload
                arb->onReport(msg->report);
            });
        arbiter->setGrantSink(
            [&engine, &stacks, &sc](const ClusterGrant &grant) {
                const auto dst = static_cast<std::size_t>(grant.node);
                MessageBus *bus = &*stacks[dst]->bus;
                auto msg =
                    std::make_shared<const ClusterGrantMsg>(grant);
                // A same-shard post (node 0 to itself) schedules
                // directly; cross-shard ones ride the fabric.
                engine.post(
                    0, grant.node,
                    engine.shard(0).now() + sc.interNodeLatency,
                    [bus, msg]() {
                        if (const auto id = bus->lookup("cluster/cap"))
                            bus->send(*id, msg);
                    });
            });
        if (clusterProbe_)
            arbiter->setDecisionProbe(clusterProbe_);

        // Per-node demand reporters, phase-offset half an interval
        // ahead of the rebalance loop so every decision can see a
        // fresh in-flight report from each healthy node. Reports leave
        // only on their ticks and grants only on rebalance rounds, so
        // the engine syncs just the windows holding those ticks.
        const SimTime reportStart =
            SimTime::sec(sc.rebalanceInterval.toSec() * 0.5);
        for (int g = 1; g < groups; ++g) {
            engine.declare(g, 0,
                           ShardedEngine::PostSchedule::every(
                               reportStart, sc.rebalanceInterval));
            engine.declare(0, g,
                           ShardedEngine::PostSchedule::every(
                               sc.rebalanceInterval,
                               sc.rebalanceInterval));
        }
        for (int g = 0; g < groups; ++g) {
            NodeStack *stp = stacks[static_cast<std::size_t>(g)].get();
            stp->sim->schedulePeriodic(
                reportStart, sc.rebalanceInterval,
                [&engine, &sc, g, stp, rootBus]() {
                    ClusterNodeReport report;
                    report.node = g;
                    report.seq = ++stp->clusterReportSeq;
                    report.effectiveCapWatts =
                        stp->budget->effectiveCap().value();
                    double backlog = 0.0;
                    for (int s = 0; s < stp->app->numStages(); ++s)
                        backlog += static_cast<double>(
                            stp->app->stage(s).totalQueueLength());
                    report.queueBacklog = backlog;
                    report.p99Sec =
                        stp->center->latencyWindow().quantile(0.99);
                    auto msg =
                        std::make_shared<const ClusterReportMsg>(
                            report);
                    engine.post(
                        g, 0, stp->sim->now() + sc.interNodeLatency,
                        [rootBus, msg]() {
                            if (const auto id = rootBus->lookup(
                                    "cluster/arbiter"))
                                rootBus->send(*id, msg);
                        });
                });
        }
    }

    // Every artifact the run was asked for: a single node's plain
    // documents, or one envelope per artifact for a fleet.
    auto writeOutputs = [&stacks, &effective, &sc, &result, &arbiter,
                         &engine]() {
        if (!effective.anyEnabled())
            return;
        for (auto &st : stacks) {
            MetricsRegistry &metrics = st->tel->metrics();
            metrics.gauge("queries.submitted")
                .set(static_cast<double>(st->app->submitted()));
            metrics.gauge("queries.completed")
                .set(static_cast<double>(st->app->completed()));
        }
        if (stacks.size() == 1) {
            stacks[0]->tel->writeOutputs(
                sc.name, result.slo.collected ? &result.slo : nullptr);
            return;
        }
        if (effective.tracingEnabled()) {
            std::ofstream out(effective.traceOut,
                              std::ios::binary | std::ios::trunc);
            if (!out.good())
                fatal("cannot write trace file '%s'",
                      effective.traceOut.c_str());
            std::vector<const TraceSink *> sinks;
            for (const auto &st : stacks)
                sinks.push_back(&st->tel->trace());
            TraceSink::writeMergedChromeTrace(out, sinks);
        }
        // One document per node, in node order.
        const auto docs = [&stacks](const auto &write) {
            std::vector<std::string> out;
            for (const auto &st : stacks) {
                std::ostringstream doc;
                write(*st->tel, doc);
                out.push_back(doc.str());
            }
            return out;
        };
        if (effective.metricsEnabled()) {
            JsonObject counts;
            counts["sync_rounds"] =
                JsonValue(static_cast<double>(engine.syncRounds()));
            counts["cross_shard_posts"] =
                JsonValue(static_cast<double>(engine.crossShardEvents()));
            counts["remote_arrivals"] =
                JsonValue(static_cast<double>(engine.feedDeliveries()));
            writeEnvelope(effective.metricsOut, "metrics", sc.name,
                          docs([&sc](const Telemetry &tel, std::ostream &o) {
                              tel.metrics().writeJson(o, sc.name);
                          }),
                          "\"engine\":" +
                              JsonValue(std::move(counts)).dump());
        }
        if (!effective.auditOut.empty()) {
            writeEnvelope(effective.auditOut, "audit", sc.name,
                          docs([](const Telemetry &tel, std::ostream &o) {
                              tel.audit().writeJson(o);
                          }));
        }
        if (effective.timeseriesEnabled()) {
            std::string extra;
            if (result.slo.collected) {
                extra = "\"slo\":" +
                    sloReportToJson(result.slo).dump();
            }
            if (arbiter) {
                if (!extra.empty())
                    extra += ",";
                extra += "\"cluster\":" +
                    arbiter->summaryJson().dump();
            }
            writeEnvelope(
                effective.timeseriesOut, "timeseries", sc.name,
                docs([&sc](const Telemetry &tel, std::ostream &o) {
                    JsonObject doc;
                    if (const auto *recorder = tel.recorder())
                        doc = recorder->toJson().asObject();
                    doc["alerts"] = tel.alerts() ? tel.alerts()->toJson()
                                                 : JsonValue(JsonArray{});
                    doc["scenario"] = JsonValue(sc.name);
                    o << JsonValue(std::move(doc)).dump();
                }),
                extra);
        }
        if (!effective.critpathOut.empty()) {
            writeEnvelope(effective.critpathOut, "critpath", sc.name,
                          docs([&sc](const Telemetry &tel, std::ostream &o) {
                              if (tel.critpath())
                                  tel.critpath()->writeJson(o, sc.name);
                          }));
        }
    };

    // Flush-on-fatal: if the run aborts on a conservation, ledger or
    // cluster fatal() below, the telemetry collected so far is written
    // out instead of vanishing with the process — partial traces are
    // what post-mortems need most. Unregistered on normal return.
    std::optional<FatalFlushGuard> flushGuard;
    if (effective.anyEnabled())
        flushGuard.emplace(writeOutputs);

    if (spray) {
        std::vector<MultiStageApp *> apps;
        for (auto &st : stacks)
            apps.push_back(&*st->app);
        for (int g = 0; g < groups; ++g) {
            NodeStack &st = *stacks[static_cast<std::size_t>(g)];
            st.spray = std::make_unique<SprayFeed>(*st.gen, g, apps,
                                                   sc.interNodeLatency);
            engine.setFeed(g, st.spray.get());
        }
    }
    if (arbiter)
        arbiter->start();

    engine.run(sc.duration, workers);

    for (auto &st : stacks)
        st->center->stop();

    // Post-run invariants, per node. The spray keeps these intact:
    // every query is submitted to exactly one app, and sprays scheduled
    // past the deadline were never submitted anywhere — identically at
    // any worker count.
    for (int g = 0; g < groups; ++g)
        checkRunInvariants(*stacks[static_cast<std::size_t>(g)]->app,
                           *stacks[static_cast<std::size_t>(g)]->budget,
                           groups > 1 ? g : -1);

    // Cluster ledger checks — the post-run leg of the arbiter's
    // conservation invariant: every node's effective cap must sit at
    // or below its assumed share, and the assumed total at or below
    // the fleet cap. Watts were only ever moved, never minted, no
    // matter what the fault fabric did to reports and grants.
    if (arbiter) {
        constexpr double kClusterSlackWatts = 1e-6;
        double effectiveTotal = 0.0;
        for (int g = 0; g < groups; ++g) {
            const double eff = stacks[static_cast<std::size_t>(g)]
                                   ->budget->effectiveCap()
                                   .value();
            effectiveTotal += eff;
            if (eff > arbiter->assumedCapWatts(g) + kClusterSlackWatts)
                fatal("cluster conservation broke on node %d: "
                      "effective cap %.6f W above the arbiter's "
                      "assumed %.6f W",
                      g, eff, arbiter->assumedCapWatts(g));
        }
        if (arbiter->assumedTotalWatts() >
            arbiter->capWatts() + kClusterSlackWatts)
            fatal("cluster conservation broke: assumed shares sum to "
                  "%.6f W above the fleet cap %.6f W",
                  arbiter->assumedTotalWatts(), arbiter->capWatts());
        if (effectiveTotal > arbiter->capWatts() + kClusterSlackWatts)
            fatal("cluster conservation broke: node effective caps "
                  "sum to %.6f W above the fleet cap %.6f W",
                  effectiveTotal, arbiter->capWatts());
    }

    // ---- Deterministic merge, groups in fixed index order. ----

    ExactPercentile latency;
    std::size_t latencySamples = 0;
    for (const auto &st : stacks)
        latencySamples += st->latency.count();
    latency.reserve(latencySamples);
    StreamingStats latencyStats;
    std::vector<StreamingStats> queuingByStage(
        static_cast<std::size_t>(numStages));
    std::vector<StreamingStats> servingByStage(
        static_cast<std::size_t>(numStages));
    double avgPowerSum = 0.0;
    for (std::size_t g = 0; g < stacks.size(); ++g) {
        NodeStack &st = *stacks[g];
        result.submitted += st.app->submitted();
        result.completed += st.app->completed();
        latency.merge(st.latency);
        latencyStats.merge(st.latencyStats);
        for (int s = 0; s < numStages; ++s) {
            const auto su = static_cast<std::size_t>(s);
            queuingByStage[su].merge(st.queuingByStage[su]);
            servingByStage[su].merge(st.servingByStage[su]);
        }
        // Fleet power: nodes sample on the same grid, so the sum of
        // per-node window means is the mean fleet draw.
        avgPowerSum += st.power.mean();
        result.energyJoules +=
            (st.chip->totalEnergy() - st.energyBefore).value();
    }
    for (int s = 0; s < numStages; ++s) {
        const auto su = static_cast<std::size_t>(s);
        StageBreakdown breakdown;
        breakdown.avgQueuingSec = queuingByStage[su].mean();
        breakdown.avgServingSec = servingByStage[su].mean();
        breakdown.hops = servingByStage[su].count();
        result.stageBreakdown.push_back(breakdown);
    }
    result.avgLatencySec = latencyStats.mean();
    // One quantile of this buffer is read: select it, do not sort.
    result.p99LatencySec = latency.selectQuantile(0.99);
    result.maxLatencySec = latencyStats.max();
    result.avgPowerWatts = avgPowerSum;

    // A fleet's order-sensitive consumers replay the merged stream.
    std::vector<const std::vector<TimeSeries::Point> *> streams;
    for (const auto &st : stacks)
        streams.push_back(&st->completionLat.points());
    std::vector<StageSpan> spans;
    mergeByTime(streams, [&](std::size_t g, std::size_t i) {
        const auto &p = (*streams[g])[i];
        if (attribution) {
            const auto first = stacks[g]->completionSpans.begin() +
                static_cast<std::ptrdiff_t>(i) * numStages;
            spans.assign(first, first + numStages);
        }
        consume(p.t, p.value, spans);
    });
    if (sloTracker) {
        sloTracker->finish(sc.duration);
        result.slo = sloTracker->report();
    }
    if (attribution)
        result.tailAttribution = attribution->report();

    if (recordTraces_) {
        // Fleet instance counts and power: pointwise sums over the
        // shared sampling grid.
        result.stageInstanceCounts.assign(
            static_cast<std::size_t>(numStages),
            TimeSeries("instances"));
        const auto samples = stacks[0]->powerSeries.size();
        for (const auto &st : stacks) {
            if (st->powerSeries.size() != samples)
                fatal("sharded merge: power sample grids diverged "
                      "(%zu vs %zu)", st->powerSeries.size(), samples);
        }
        for (std::size_t i = 0; i < samples; ++i) {
            const SimTime t = stacks[0]->powerSeries.points()[i].t;
            double watts = 0.0;
            for (const auto &st : stacks)
                watts += st->powerSeries.points()[i].value;
            result.powerSeries.append(t, watts);
            for (int s = 0; s < numStages; ++s) {
                const auto su = static_cast<std::size_t>(s);
                double count = 0.0;
                for (const auto &st : stacks)
                    count += st->stageInstanceCounts[su].points()[i]
                                 .value;
                result.stageInstanceCounts[su].append(t, count);
            }
        }
        for (std::size_t g = 0; g < stacks.size(); ++g) {
            const std::string prefix =
                groups > 1 ? "n" + std::to_string(g) + "/" : "";
            for (const auto &[name, series] :
                 stacks[g]->instanceFrequencyGHz)
                result.instanceFrequencyGHz.emplace(prefix + name,
                                                    series);
        }
    }

    // Fleet summaries are exact: each node's counts and sums add.
    if (collectAudit_)
        for (const auto &st : stacks)
            result.audit.merge(summarizeAudit(st->tel->audit()));
    if (collectCritPath_)
        for (const auto &st : stacks)
            result.critpath.merge(summarizeCritPath(*st->tel->critpath()));

    writeOutputs();
    return result;
}

} // namespace pc
