/**
 * @file
 * The repository benchmark (see perfbench/README.md).
 *
 * Runs one named workload — arena, mega or fleet — through the public
 * SweepRunner / ExperimentRunner entry points for a fixed host-time
 * budget, checks every simulation run, and prints one JSON result line
 * {"correct", "attempted", "failed", "metrics"} as the last line of
 * stdout. With --trace 0 the metrics are the end-to-end host times;
 * with --trace 1 they are the per-layer metrics, all measured from
 * outside the program: layer probes, timing decorators injected
 * through Scenario::metricFactory / recycleFactory, the interval and
 * cluster probes, the metrics dump and RunResult.
 *
 *   perfbench --workload arena|mega|fleet --seed N [--seconds S]
 *             [--trace 0|1] [--out DIR]
 *
 * --setup-only 1 times one cold set-up, prints its seconds and exits;
 * the untraced run starts itself that way to measure setup_s.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/arbiter.h"
#include "common/json.h"
#include "core/bottleneck.h"
#include "core/reallocator.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"
#include "power/power_model.h"
#include "probes.h"
#include "spans.h"
#include "workloads/profiler.h"

extern char **environ;

using namespace pc;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------------
// Run lengths (simulated) of the three workloads.

/** Simulated seconds of each arena point (bench/arena's default: 150). */
constexpr double kArenaSec = 60.0;
/** Share of arena points the sweep's determinism audit re-runs. */
constexpr double kArenaAuditFraction = 1.0 / 24.0;
constexpr double kMegaQueries = 4e5;
constexpr double kMegaSec = 40.0;
constexpr double kFleetSec = 30.0;
constexpr double kFleetLoadScale = 5.5;
/** Measurement rounds: at least this many, and about this many. */
constexpr std::size_t kMinRounds = 3;
constexpr int kExpectedRounds = 12;
/** Cold set-ups (each in a fresh process) per round. */
constexpr int kSetupsPerRound = 2;
/** Seeds per policy in one golden cycle. */
constexpr std::uint64_t kGoldenSeeds = 4;
/** Share of the untraced run spent in the golden loop. */
constexpr double kGoldenShare = 0.2;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * Timing statistic of the end-to-end metrics: the mean of many samples
 * interleaved over the whole run. The host's co-tenants change its
 * speed by up to 2x in phases of seconds to tens of seconds; a time
 * average weighs the phases by their share of the run, where a median
 * or a low quantile flips between them from run to run.
 */
double
runMean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
            static_cast<double>(v.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

// ---------------------------------------------------------------------
// Workloads.

enum class Kind { Arena, Mega, Fleet };

struct Workload
{
    Kind kind = Kind::Arena;
    std::string name;
    /** One pass, in submission order. */
    std::vector<Scenario> scenarios;
    /** Short runs of each distinct scenario shape, run during set-up. */
    std::vector<Scenario> shapes;
    perfbench::ProbeSizes probe;
    perfbench::EngineProbeSizes engine;
};

FaultPlan
armedPlan(std::uint64_t planSeed)
{
    FaultPlan plan;
    plan.active = true;
    plan.seed = planSeed;
    return plan;
}

/** One point of bench/arena's matrix (same knobs, shorter run). */
Scenario
arenaPoint(const WorkloadModel &model, LoadLevel load, double watts,
           bool lossy, PolicyKind policy, std::uint64_t seed,
           double durationSec)
{
    Scenario sc = Scenario::mitigation(model, load, policy, seed);
    double serviceSum = 0.0;
    int slowest = 0;
    for (int s = 0; s < model.numStages(); ++s) {
        serviceSum += model.stage(s).meanServiceSec;
        if (model.stage(s).meanServiceSec >
            model.stage(slowest).meanServiceSec)
            slowest = s;
    }
    char budget[32];
    std::snprintf(budget, sizeof(budget), "%g", watts);
    sc.name = "arena/" + model.name() + "/" + toString(load) + "/" +
        budget + "w/" + (lossy ? "lossy" : "clean") + "/" +
        toString(policy);
    sc.duration = SimTime::sec(durationSec);
    sc.warmup = SimTime::sec(durationSec / 5.0);
    sc.powerBudget = Watts(watts);
    sc.qosTargetSec = 3.0 * serviceSum;
    sc.fixedStage = slowest;
    sc.faults = armedPlan(lossy ? 18 : 17);
    if (lossy) {
        BusFaultRule bus;
        bus.dropRate = 0.03;
        bus.reorderRate = 0.1;
        bus.reorderJitterMax = SimTime::msec(5);
        sc.faults.bus.push_back(bus);
        sc.faults.telemetry.staleRate = 0.1;
        sc.faults.telemetry.truncateRate = 0.05;
        sc.faults.telemetry.perfCtlFailRate = 0.2;
        sc.wireReports = true;
        sc.control.staleWindow = SimTime::sec(60);
    }
    return sc;
}

/**
 * One point of bench/fleet's clean cell (same knobs, shorter run): an
 * armed injector that never acts, so the invariants stay enforced. The
 * lossy cell's gate is not seed-robust at this run length (at 30 s,
 * seeds 25, 27, 35 and 38 of 0..40 fail it; 27 still does at 60 s).
 */
Scenario
fleetPoint(ClusterPolicyKind policy, std::uint64_t seed, double durationSec)
{
    Scenario sc = Scenario::fleet(policy, 4, 0.75, durationSec, seed);
    if (policy == ClusterPolicyKind::None) {
        // The static control runs under the same global cap, pre-split.
        sc.powerBudget = Watts(sc.clusterBudget.value() / 4.0);
    }
    sc.faults = armedPlan(17);
    sc.load = sc.load.scaled(kFleetLoadScale);
    sc.remoteFraction = 0.02;
    sc.name += "/clean";
    return sc;
}

Workload
makeWorkload(Kind kind, std::uint64_t seed)
{
    Workload wl;
    wl.kind = kind;
    wl.probe.profileSeed = seed ^ 0x5eedull; // the runner's profile key
    const WorkloadModel micro = WorkloadModel::microservice();
    switch (kind) {
      case Kind::Arena: {
        wl.name = "arena";
        const std::vector<WorkloadModel> models = {
            WorkloadModel::sirius(), WorkloadModel::nlp(),
            WorkloadModel::webSearch()};
        for (const auto &model : models) {
            for (const LoadLevel load : {LoadLevel::Medium, LoadLevel::High})
                for (const double watts : {13.56, 18.0})
                    for (const bool lossy : {false, true})
                        for (const PolicyKind policy : allPolicyKinds())
                            wl.scenarios.push_back(arenaPoint(
                                model, load, watts, lossy, policy, seed,
                                kArenaSec));
            wl.shapes.push_back(arenaPoint(model, LoadLevel::High, 13.56,
                                           true, PolicyKind::PowerChief,
                                           seed, 2.0));
        }
        wl.probe.models = models;
        wl.probe.rankModel = models.front();
        wl.probe.rankLayout.assign(
            static_cast<std::size_t>(models.front().numStages()), 3);
        break;
      }
      case Kind::Mega: {
        wl.name = "mega";
        wl.scenarios.push_back(
            Scenario::millionQuery(8, kMegaQueries, kMegaSec, seed));
        // One simulated second at the same per-group rate.
        wl.shapes.push_back(Scenario::millionQuery(
            8, kMegaQueries / kMegaSec, 1.0, seed));
        wl.probe.models = {micro};
        wl.probe.rankModel = micro;
        wl.probe.rankLayout = {3, 7, 4};
        break;
      }
      case Kind::Fleet: {
        wl.name = "fleet";
        for (const auto policy : {ClusterPolicyKind::ProportionalDemand,
                                  ClusterPolicyKind::None}) {
            wl.scenarios.push_back(fleetPoint(policy, seed, kFleetSec));
            wl.shapes.push_back(fleetPoint(policy, seed, 1.0));
        }
        wl.probe.models = {micro};
        wl.probe.rankModel = micro;
        wl.probe.rankLayout = {3, 7, 4};
        break;
      }
    }
    wl.probe.windowSec = wl.scenarios.front().control.statsWindow.toSec();
    // The engine probe has mega's topology on every workload; mega
    // replaces the nominal arrival rate with its measured one.
    const Scenario mega =
        Scenario::millionQuery(8, kMegaQueries, kMegaSec, seed);
    wl.engine.shards = mega.nodeGroups;
    wl.engine.lookaheadSec = mega.interNodeLatency.toSec();
    wl.engine.arrivalsPerShardSec = mega.load.rateAt(SimTime::zero());
    wl.engine.sprayFraction = mega.remoteFraction;
    wl.engine.seed = seed;
    return wl;
}

// ---------------------------------------------------------------------
// Traced-run instrumentation: decorators, probes, metrics dumps, spans.

class TimedMetric;

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/** One traced simulation run's measurements, filled on its threads. */
struct RunTap
{
    std::uint64_t span = 0;
    /** The single-node run's metric decorator (closes ticks). */
    TimedMetric *tickMetric = nullptr;
    std::atomic<std::uint64_t> clusterDecisions{0};

    std::mutex mutex;
    std::uint64_t metricCalls = 0;
    double metricNs = 0.0;
    std::uint64_t recycleCalls = 0;
    double recycleNs = 0.0;
    std::vector<Interval> ticks;
    /** Simulator heap entries at each control interval. */
    std::vector<double> pending;
};

/** The run the current thread is building (decorator factories read it). */
thread_local RunTap *tlsRun = nullptr;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/**
 * PowerChiefMetric (the default metric) behind a timer. A control tick
 * starts at its first score() call — the ranking — and ends at the
 * interval probe, which fires once the policy, withdraw and taps ran.
 */
class TimedMetric final : public BottleneckMetric
{
  public:
    explicit TimedMetric(RunTap *run) : run_(run)
    {
        if (run_)
            run_->tickMetric = this;
    }

    ~TimedMetric() override
    {
        if (!run_)
            return;
        const std::lock_guard<std::mutex> lock(run_->mutex);
        run_->metricCalls += calls_;
        run_->metricNs += ns_;
        run_->ticks.insert(run_->ticks.end(), ticks_.begin(), ticks_.end());
    }

    TimedMetric(const TimedMetric &) = delete;
    TimedMetric &operator=(const TimedMetric &) = delete;

    const char *name() const override { return inner_.name(); }

    double
    score(const InstanceSnapshot &s) const override
    {
        if (!run_)
            return inner_.score(s);
        const auto t0 = Clock::now();
        const double v = inner_.score(s);
        const auto t1 = Clock::now();
        ++calls_;
        ns_ += nsBetween(t0, t1);
        if (!inTick_) {
            inTick_ = true;
            tickStart_ = t0;
        }
        return v;
    }

    void
    endTick()
    {
        if (!inTick_)
            return;
        ticks_.emplace_back(tickStart_, Clock::now());
        inTick_ = false;
    }

  private:
    PowerChiefMetric inner_;
    RunTap *run_;
    mutable std::uint64_t calls_ = 0;
    mutable double ns_ = 0.0;
    mutable bool inTick_ = false;
    mutable Clock::time_point tickStart_;
    std::vector<Interval> ticks_;
};

/** FastestFirstOrder (the default recycle order) behind a timer. */
class TimedRecycle final : public RecycleOrder
{
  public:
    explicit TimedRecycle(RunTap *run) : run_(run) {}

    ~TimedRecycle() override
    {
        if (!run_)
            return;
        const std::lock_guard<std::mutex> lock(run_->mutex);
        run_->recycleCalls += calls_;
        run_->recycleNs += ns_;
    }

    TimedRecycle(const TimedRecycle &) = delete;
    TimedRecycle &operator=(const TimedRecycle &) = delete;

    const char *name() const override { return inner_.name(); }

    SortedSnapshots
    order(const SortedSnapshots &sorted) const override
    {
        if (!run_)
            return inner_.order(sorted);
        const auto t0 = Clock::now();
        SortedSnapshots out = inner_.order(sorted);
        ++calls_;
        ns_ += nsBetween(t0, Clock::now());
        return out;
    }

    int maxStepsPerRound() const override
    {
        return inner_.maxStepsPerRound();
    }

  private:
    FastestFirstOrder inner_;
    RunTap *run_;
    mutable std::uint64_t calls_ = 0;
    mutable double ns_ = 0.0;
};

/** A scenario with the timing decorators injected. */
Scenario
withDecorators(Scenario sc)
{
    sc.metricFactory = []() -> std::unique_ptr<BottleneckMetric> {
        return std::make_unique<TimedMetric>(tlsRun);
    };
    sc.recycleFactory = []() -> std::unique_ptr<RecycleOrder> {
        return std::make_unique<TimedRecycle>(tlsRun);
    };
    return sc;
}

/** What one traced pass collected. */
struct PassTap
{
    std::uint64_t metricCalls = 0;
    double metricNs = 0.0;
    std::uint64_t recycleCalls = 0;
    double recycleNs = 0.0;
    std::uint64_t clusterDecisions = 0;
    std::vector<double> tickUs;
    std::vector<double> runMs;
    std::vector<double> pending;
    std::vector<std::string> metricsFiles;
};

/** Instrumentation shared by every traced run of the benchmark. */
struct Tap
{
    SpanLog spans;
    std::string metricsDir;
    std::uint64_t passSpan = 0;

    std::mutex mutex;
    std::set<std::string> claimed;
    PassTap pass;

    void
    beginPass(std::uint64_t span)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        passSpan = span;
        claimed.clear();
        pass = PassTap{};
    }

    /**
     * True the first time @p name runs in this pass; the sweep audit's
     * re-runs of the same point stay untraced so nothing counts twice.
     */
    bool
    claim(const std::string &name)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        return claimed.insert(name).second;
    }

    std::string
    metricsPathFor(const std::string &scenario) const
    {
        std::string file = scenario;
        for (char &c : file)
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
                c != '-' && c != '_')
                c = '_';
        return metricsDir + "/" + file + ".json";
    }

    void
    absorbRun(RunTap &rt, Clock::time_point start, Clock::time_point end,
              const std::string &metricsFile)
    {
        spans.add("exp.run", start, end, passSpan, rt.span, rt.span);
        for (const auto &[a, b] : rt.ticks)
            spans.add("core.tick", a, b, rt.span, rt.span);
        const std::lock_guard<std::mutex> lock(mutex);
        pass.metricCalls += rt.metricCalls;
        pass.metricNs += rt.metricNs;
        pass.recycleCalls += rt.recycleCalls;
        pass.recycleNs += rt.recycleNs;
        pass.clusterDecisions += rt.clusterDecisions.load();
        for (const auto &[a, b] : rt.ticks)
            pass.tickUs.push_back(nsBetween(a, b) / 1e3);
        pass.runMs.push_back(nsBetween(start, end) / 1e6);
        pass.pending.insert(pass.pending.end(), rt.pending.begin(),
                            rt.pending.end());
        pass.metricsFiles.push_back(metricsFile);
    }
};

// ---------------------------------------------------------------------
// Passes and checks.

struct PassResult
{
    double wallSec = 0.0;
    std::vector<RunResult> runs;
    std::size_t divergences = 0;
};

std::uint64_t
simDigest(RunResult r, bool stripObservers)
{
    if (stripObservers) {
        // The traced mega/fleet runs add the audit and critical-path
        // observers; everything else must match the untraced run.
        r.audit = RunAuditSummary{};
        r.critpath = RunCritPathSummary{};
    }
    return fnv1a64(runResultToJson(r).dump());
}

class Bench
{
  public:
    Bench(Workload wl, int workers) : wl_(std::move(wl)), workers_(workers)
    {
    }

    const Workload &workload() const { return wl_; }
    int workers() const { return workers_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, std::uint64_t> &digests() const
    {
        return digests_;
    }

    void
    fail(const std::string &why)
    {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(why);
    }
    const std::vector<std::string> &failures() const { return failures_; }

    /**
     * One simulation run as the workload's pass runs it; with @p tap the
     * run is traced (decorators must already be on the scenario).
     */
    RunResult
    runScenario(const Scenario &sc, int shards, bool flipSampling,
                Tap *tap) const
    {
        const bool arena = wl_.kind == Kind::Arena;
        SloConfig slo;
        slo.enabled = wl_.kind == Kind::Fleet;
        const bool observers = arena || tap;
        ExperimentRunner runner(arena, SimTime::sec(5), false, observers,
                                slo, observers);
        runner.setShards(shards);
        TelemetryConfig tc;
        tc.alertsEnabled = (wl_.kind == Kind::Fleet) != flipSampling;
        if (!tap)
            return runner.run(sc, tc.anyEnabled() ? &tc : nullptr);

        RunTap rt;
        rt.span = tap->spans.newId();
        tc.metricsOut = tap->metricsPathFor(sc.name);
        // Final values only: no periodic series in the dump.
        tc.metricsInterval = SimTime::sec(1e7);
        if (sc.nodeGroups > 1) {
            runner.setClusterProbe([&rt](const ClusterDecision &) {
                rt.clusterDecisions.fetch_add(1, std::memory_order_relaxed);
            });
        } else {
            runner.setIntervalProbe([&rt](const ControlContext &ctx) {
                if (rt.tickMetric)
                    rt.tickMetric->endTick();
                rt.pending.push_back(
                    static_cast<double>(ctx.sim->pendingEvents()));
            });
        }
        tlsRun = &rt;
        const auto t0 = Clock::now();
        RunResult result = runner.run(sc, &tc);
        const auto t1 = Clock::now();
        tlsRun = nullptr;
        tap->absorbRun(rt, t0, t1, tc.metricsOut);
        return result;
    }

    /** One pass over the workload's scenarios at @p workers. */
    PassResult
    pass(int workers, bool flipSampling, Tap *tap)
    {
        const std::vector<Scenario> &scenarios =
            tap ? traced() : wl_.scenarios;
        std::optional<ScopedSpan> span;
        if (tap) {
            span.emplace(&tap->spans, "pass");
            tap->beginPass(span->id());
        }
        PassResult out;
        const auto t0 = Clock::now();
        if (wl_.kind == Kind::Arena) {
            SweepOptions options;
            options.jobs = workers;
            options.useCache = false;
            options.audit = true;
            options.auditFatal = false;
            options.auditFraction = kArenaAuditFraction;
            options.recordTraces = true;
            options.collectAudit = true;
            options.collectCritPath = true;
            SweepRunner sweep(options);
            if (tap || flipSampling) {
                sweep.setRunFunction([this, tap, flipSampling](
                                         const Scenario &sc) {
                    Tap *t = tap && tap->claim(sc.name) ? tap : nullptr;
                    return runScenario(sc, 1, flipSampling, t);
                });
            }
            out.runs = sweep.runAll(scenarios);
            out.divergences = sweep.report().divergences.size();
        } else {
            for (const Scenario &sc : scenarios)
                out.runs.push_back(
                    runScenario(sc, workers, flipSampling, tap));
        }
        out.wallSec = secondsBetween(t0, Clock::now());
        return out;
    }

    /** Check every run of @p p, counting each failed run. */
    void
    check(const PassResult &p, bool stripObservers)
    {
        const auto &scenarios = wl_.scenarios;
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            const RunResult &r = p.runs[i];
            const std::string &name = scenarios[i].name;
            ++attempted_;
            if (r.completed == 0 || r.completed > r.submitted) {
                fail(name + ": completed " + std::to_string(r.completed) +
                     " of " + std::to_string(r.submitted) + " submitted");
                continue;
            }
            const std::uint64_t d = simDigest(r, stripObservers);
            auto [it, fresh] = digests_.emplace(name, d);
            if (!fresh && it->second != d)
                fail(name + ": sim_digest " + hex64(d) + " != " +
                     hex64(it->second));
        }
        for (std::size_t i = 0; i < p.divergences; ++i)
            fail("sweep determinism audit reported a divergence");
        if (wl_.kind == Kind::Fleet) {
            // bench/fleet's gate: the arbiter strictly beats static.
            const RunResult &prop = p.runs[0];
            const RunResult &stat = p.runs[1];
            if (!(prop.p99LatencySec < stat.p99LatencySec &&
                  prop.slo.violationSeconds < stat.slo.violationSeconds))
                fail("fleet gate: proportional does not beat static");
        }
    }

    /** Runs checked outside passes (golden loop, tick probe). */
    void
    checkLone(const std::string &name, const RunResult &r)
    {
        ++attempted_;
        if (r.completed == 0 || r.completed > r.submitted)
            fail(name + ": bad completion counts");
    }

    /** The scenarios with timing decorators, built once. */
    const std::vector<Scenario> &
    traced()
    {
        if (traced_.empty())
            for (const auto &sc : wl_.scenarios)
                traced_.push_back(withDecorators(sc));
        return traced_;
    }

    /**
     * Set-up: an offline profile of every workload model (after
     * clearing the profile cache) plus the first (untimed) run of each
     * scenario shape.
     */
    void
    setupOnce()
    {
        OfflineProfiler::clearProfileCache();
        const OfflineProfiler profiler;
        const PowerModel model = PowerModel::haswell();
        for (const auto &m : wl_.probe.models)
            profiler.profileWorkload(m, model, wl_.probe.profileSeed);
        for (const auto &sc : wl_.shapes)
            runScenario(sc, workers_, false, nullptr);
    }

  private:
    Workload wl_;
    int workers_;
    std::vector<Scenario> traced_;
    std::map<std::string, std::uint64_t> digests_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// The pinned golden Fig. 11 loop.

/**
 * Host ms of one cycle through goldenFig11For(p) for every PolicyKind,
 * single thread; @p observers turns traces, audit and critpath on.
 */
double
goldenCycleMs(Bench &bench, const std::vector<Scenario> &golden,
              bool observers, bool check,
              std::vector<std::uint64_t> *digests)
{
    const ExperimentRunner runner(observers, SimTime::sec(5), false,
                                  observers, {}, observers);
    const auto t0 = Clock::now();
    std::vector<RunResult> runs;
    runs.reserve(golden.size());
    for (const auto &sc : golden)
        runs.push_back(runner.run(sc));
    const double ms = secondsBetween(t0, Clock::now()) * 1e3;
    if (check) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            bench.checkLone(golden[i].name, runs[i]);
            if (digests)
                digests->push_back(simDigest(runs[i], false));
        }
    }
    return ms;
}

/**
 * The golden loop's scenarios: goldenFig11For(p) for every PolicyKind,
 * each at kGoldenSeeds seeds derived from @p seed, so one cycle averages
 * over several arrival streams instead of riding on one.
 */
std::vector<Scenario>
goldenScenarios(std::uint64_t seed)
{
    std::vector<Scenario> out;
    for (std::uint64_t k = 0; k < kGoldenSeeds; ++k) {
        for (const PolicyKind p : allPolicyKinds()) {
            Scenario sc = Scenario::goldenFig11For(p);
            sc.seed = seed * kGoldenSeeds + k;
            out.push_back(sc);
        }
    }
    return out;
}

/** A single-node run of a sharded scenario's first group. */
Scenario
firstGroupAlone(Scenario sc)
{
    if (sc.clusterPolicy != ClusterPolicyKind::None) {
        sc.powerBudget = Watts(sc.clusterBudget.value() /
                               static_cast<double>(sc.nodeGroups));
    }
    if (!sc.groupLoadScale.empty())
        sc.load = sc.load.scaled(sc.groupLoadScale.front());
    sc.groupLoadScale.clear();
    sc.nodeGroups = 1;
    sc.remoteFraction = 0.0;
    sc.clusterPolicy = ClusterPolicyKind::None;
    sc.clusterBudget = Watts(0.0);
    sc.name += "/group0";
    return sc;
}

/**
 * Queries one node group completes in one statistics window, averaged
 * over the runs of @p model in @p p: completed ÷ duration × window.
 */
int
windowSamplesOf(const std::vector<Scenario> &scenarios, const PassResult &p,
                const std::string &model)
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
        const Scenario &sc = scenarios[i];
        if (sc.workload.name() != model)
            continue;
        sum += static_cast<double>(p.runs[i].completed) /
            (sc.duration.toSec() * sc.nodeGroups) *
            sc.control.statsWindow.toSec();
        ++n;
    }
    return std::max(1, static_cast<int>(std::lround(n ? sum / n : 0.0)));
}

// ---------------------------------------------------------------------
// Exact-count harvest of a traced pass.

void
addDumpCounters(const std::string &path, std::map<std::string, double> *sums)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = parseJson(text.str());
    if (!parsed.ok()) {
        std::fprintf(stderr, "perfbench: unreadable metrics dump %s\n",
                     path.c_str());
        (*sums)["perfbench.unreadable_dumps"] += 1.0;
        return;
    }
    // Sharded runs write an envelope with one document per node group.
    std::vector<const JsonValue *> docs;
    if (const JsonValue *shards = parsed.value->find("shards"))
        for (const JsonValue &doc : shards->asArray())
            docs.push_back(&doc);
    else
        docs.push_back(&*parsed.value);
    for (const JsonValue *doc : docs)
        if (const JsonValue *counters = doc->find("counters"))
            for (const auto &[name, v] : counters->asObject())
                (*sums)[name] += v.asNumber();
}

std::map<std::string, double>
harvestExact(const PassResult &p, const PassTap &tap)
{
    std::map<std::string, double> m;
    double submitted = 0, completed = 0, hops = 0;
    double selects = 0, recycles = 0, withdraws = 0, plans = 0, stale = 0;
    double agree = 0, scored = 0;
    for (const RunResult &r : p.runs) {
        submitted += static_cast<double>(r.submitted);
        completed += static_cast<double>(r.completed);
        for (const auto &stage : r.stageBreakdown)
            hops += static_cast<double>(stage.hops);
        selects += static_cast<double>(r.audit.selects);
        recycles += static_cast<double>(r.audit.recycles);
        withdraws += static_cast<double>(r.audit.withdraws);
        plans += static_cast<double>(r.audit.plans);
        stale += static_cast<double>(r.audit.staleSkips);
        agree += static_cast<double>(r.critpath.agreeIntervals);
        scored += static_cast<double>(r.critpath.scoredIntervals);
    }
    m["app.submitted"] = submitted;
    m["app.completed"] = completed;
    m["app.hops"] = hops;
    m["core.selects"] = selects;
    m["core.recycles"] = recycles;
    m["core.withdraws"] = withdraws;
    m["core.plans"] = plans;
    m["core.stale_skips"] = stale;
    m["core.agreement_rate"] = scored > 0 ? agree / scored : 0.0;
    m["core.metric_calls"] = static_cast<double>(tap.metricCalls);
    m["core.recycle_calls"] = static_cast<double>(tap.recycleCalls);
    m["cluster.decisions"] = static_cast<double>(tap.clusterDecisions);
    m["exp.runs"] = static_cast<double>(tap.runMs.size());

    // Runs finish in any order at n jobs; sum their counters in name
    // order so the floating-point totals repeat exactly.
    std::vector<std::string> files = tap.metricsFiles;
    std::sort(files.begin(), files.end());
    std::map<std::string, double> sums;
    for (const auto &file : files)
        addDumpCounters(file, &sums);
    static const std::pair<const char *, const char *> kFromDump[] = {
        {"core.intervals", "control.intervals_total"},
        {"core.reports", "control.reports_total"},
        {"core.actuation_failures", "control.actuation_failures_total"},
        {"rpc.malformed_reports", "control.malformed_reports_total"},
        {"faults.bus_dropped", "faults.bus.dropped_total"},
        {"faults.bus_duplicated", "faults.bus.duplicated_total"},
        {"faults.wire_stale", "faults.wire.stale_total"},
        {"faults.wire_truncated", "faults.wire.truncated_total"},
        {"faults.perfctl_dropped", "faults.perfctl.dropped_total"},
        {"power.recycled_watts", "power.recycled_watts_total"},
        {"power.recycle_donor_steps", "recycle.donor_steps_total"},
        {"cluster.rebalances", "cluster.rebalances_total"},
        {"cluster.reports", "cluster.reports_total"},
        {"cluster.reports_dropped", "cluster.reports_dropped_total"},
        {"cluster.grants", "cluster.grants_total"},
        {"cluster.freeze_events", "cluster.freeze_events_total"},
        {"perfbench.unreadable_dumps", "perfbench.unreadable_dumps"},
    };
    for (const auto &[metric, counter] : kFromDump)
        m[metric] = sums.count(counter) ? sums.at(counter) : 0.0;
    const double reports = m["cluster.reports"];
    m["cluster.report_ok_ratio"] =
        reports > 0 ? 1.0 - m["cluster.reports_dropped"] / reports : 0.0;
    return m;
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
};

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::fprintf(stderr, "%s\n", title);
    for (const auto &m : metrics)
        std::fprintf(stderr, "  %-28s %16.6g  %s\n", m.name.c_str(),
                     m.value, m.unit);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    /** Time one cold set-up, print its seconds and exit. */
    bool setupOnly = false;
    std::string out = ".";
};

/**
 * Seconds of one cold set-up: this binary re-run with --setup-only in a
 * fresh process, so the profile cache, the allocator and every code
 * path start cold. Empty when the child fails.
 */
std::optional<double>
coldSetupSec(const Args &args)
{
    int fds[2];
    if (pipe(fds) != 0)
        return std::nullopt;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string seed = std::to_string(args.seed);
    const char *argv[] = {"perfbench",
                          "--workload", args.workload.c_str(),
                          "--seed", seed.c_str(),
                          "--setup-only", "1",
                          nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               const_cast<char *const *>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0 ||
           (n < 0 && errno == EINTR))
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    if (rc != 0)
        return std::nullopt;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return std::nullopt;
    char *end = nullptr;
    const double sec = std::strtod(text.c_str(), &end);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        end == text.c_str() || !(sec > 0))
        return std::nullopt;
    return sec;
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            args->seedGiven = true;
            if (*end)
                return false;
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            if (*end || !(args->seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args->trace = value == "1";
        } else if (flag == "--setup-only") {
            if (value != "0" && value != "1")
                return false;
            args->setupOnly = value == "1";
        } else if (flag == "--out") {
            args->out = value;
        } else {
            return false;
        }
    }
    return !args->workload.empty() && args->seedGiven;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload arena|mega|fleet "
                     "--seed N [--seconds S] [--trace 0|1] [--out DIR]\n");
        return 2;
    }
    Kind kind;
    if (args.workload == "arena")
        kind = Kind::Arena;
    else if (args.workload == "mega")
        kind = Kind::Mega;
    else if (args.workload == "fleet")
        kind = Kind::Fleet;
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const std::uint64_t seed = args.seed;
    const unsigned hw = std::thread::hardware_concurrency();
    const int workers = static_cast<int>(std::clamp(hw, 1u, 4u));
    const double budget = args.seconds;

    if (args.setupOnly) {
        const auto t0 = Clock::now();
        Bench cold(makeWorkload(kind, seed), workers);
        cold.setupOnce();
        std::printf("%.9f\n", secondsBetween(t0, Clock::now()));
        return 0;
    }

    Bench bench(makeWorkload(kind, seed), workers);
    const Workload &wl = bench.workload();
    std::fprintf(stderr,
                 "perfbench: workload=%s seed=%" PRIu64
                 " workers=%d seconds=%g trace=%d\n",
                 wl.name.c_str(), seed, workers, budget, args.trace ? 1 : 0);

    // Warm-up: profile cache, allocator and code paths.
    bench.setupOnce();
    const std::vector<Scenario> golden = goldenScenarios(seed);
    goldenCycleMs(bench, golden, false, false, nullptr);
    const auto start = Clock::now();
    auto elapsed = [&]() { return secondsBetween(start, Clock::now()); };
    std::vector<Metric> metrics;
    std::map<std::string, double> exact;
    std::unique_ptr<Tap> tap;

    if (!args.trace) {
        // Rounds interleave every measurement, so each metric samples
        // the same mix of machine states over the whole run.
        std::vector<double> setups, goldenMs, wallN, wall1;
        std::vector<std::uint64_t> goldenDigests;
        double completed = 0.0;
        while (wall1.size() < kMinRounds || elapsed() < budget) {
            for (int i = 0; i < kSetupsPerRound; ++i) {
                const std::optional<double> sec = coldSetupSec(args);
                if (!sec) {
                    std::fprintf(stderr,
                                 "perfbench: cold set-up process failed\n");
                    return 1;
                }
                setups.push_back(*sec);
            }
            const double goldenUntil = elapsed() + kGoldenShare * budget /
                static_cast<double>(kExpectedRounds);
            do {
                goldenMs.push_back(goldenCycleMs(
                    bench, golden, false, goldenMs.empty(), &goldenDigests));
            } while (elapsed() < goldenUntil);
            // The n-worker pass is the noisier one: sample it twice.
            for (int i = 0; i < 2; ++i) {
                const PassResult n = bench.pass(workers, false, nullptr);
                bench.check(n, false);
                wallN.push_back(n.wallSec);
                completed = 0.0;
                for (const auto &r : n.runs)
                    completed += static_cast<double>(r.completed);
            }
            const PassResult one = bench.pass(1, false, nullptr);
            bench.check(one, false);
            wall1.push_back(one.wallSec);
        }
        goldenCycleMs(bench, golden, false, true, &goldenDigests);
        for (std::size_t i = 0; i < golden.size(); ++i)
            if (goldenDigests[i] != goldenDigests[i + golden.size()])
                bench.fail(golden[i].name + ": sim_digest differs between "
                                            "repeats");

        const double wallS = runMean(wallN);
        const double wall1S = runMean(wall1);
        metrics = {
            {"wall_s", wallS, "s"},
            {"sim_queries_per_host_s", completed / wallS, "queries/s"},
            {"setup_s", quantileOf(setups, 0.5), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"golden_fig11_ms",
             runMean(goldenMs) / static_cast<double>(golden.size()),
             "ms"},
            {"wall_1w_s", wall1S, "s"},
            {"scaling_x", wall1S / wallS, "ratio"},
        };
    } else {
        tap = std::make_unique<Tap>();
        tap->metricsDir = args.out + "/metrics-" + wl.name;
        std::error_code ec;
        std::filesystem::create_directories(tap->metricsDir, ec);
        if (ec) {
            std::fprintf(stderr, "perfbench: cannot create %s\n",
                         tap->metricsDir.c_str());
            return 1;
        }
        // Observer tax on the golden loop: audit+critpath+traces on/off.
        std::vector<double> off, on;
        {
            ScopedSpan span(&tap->spans, "golden_observer_tax");
            const double until = elapsed() + 0.1 * budget;
            while (off.size() < 3 || elapsed() < until) {
                off.push_back(goldenCycleMs(bench, golden, false, true,
                                            nullptr));
                on.push_back(goldenCycleMs(bench, golden, true, true,
                                           nullptr));
            }
        }

        // Untraced, traced and sampling-toggled passes, interleaved.
        std::vector<double> plain, traced, flipped;
        std::vector<std::map<std::string, double>> exacts;
        PassTap firstTap;
        double firstWall = 0.0;
        // Probe sizes are measured from the workload's own runs.
        perfbench::ProbeSizes sizes = wl.probe;
        perfbench::EngineProbeSizes engine = wl.engine;
        const bool strip = kind != Kind::Arena;
        while (traced.size() < 2 || elapsed() < 0.75 * budget) {
            const PassResult u = bench.pass(workers, false, nullptr);
            bench.check(u, false);
            plain.push_back(u.wallSec);
            const PassResult f = bench.pass(workers, true, nullptr);
            bench.check(f, false);
            flipped.push_back(f.wallSec);
            const PassResult t = bench.pass(workers, false, tap.get());
            bench.check(t, strip);
            traced.push_back(t.wallSec);
            exacts.push_back(harvestExact(t, tap->pass));
            if (exacts.size() == 1) {
                firstTap = tap->pass;
                firstWall = t.wallSec;
                sizes.windowSamples = windowSamplesOf(
                    wl.scenarios, t, sizes.rankModel.name());
                if (kind == Kind::Mega) {
                    const Scenario &sc = wl.scenarios.front();
                    engine.arrivalsPerShardSec =
                        static_cast<double>(t.runs.front().submitted) /
                        (sc.duration.toSec() * sc.nodeGroups);
                }
            }
        }
        exact = exacts.front();
        for (std::size_t i = 1; i < exacts.size(); ++i)
            for (const auto &[name, v] : exacts[i])
                if (exact[name] != v)
                    bench.fail("exact count " + name +
                               " differs between traced passes");

        // Per-interval sampling is on in fleet's passes, off elsewhere.
        const double plainS = runMean(plain);
        const double flippedS = runMean(flipped);
        const double samplingTax = kind == Kind::Fleet
            ? (plainS - flippedS) / flippedS
            : (flippedS - plainS) / plainS;

        // Tick timing and heap sizes need the interval probe:
        // single-node runs only.
        std::vector<double> tickUs = firstTap.tickUs;
        std::vector<double> pending = firstTap.pending;
        if (kind != Kind::Arena) {
            const Scenario alone =
                withDecorators(firstGroupAlone(wl.scenarios.front()));
            ScopedSpan span(&tap->spans, "tick_probe");
            tap->beginPass(span.id());
            const RunResult r = bench.runScenario(alone, 1, false, tap.get());
            bench.checkLone(alone.name, r);
            tickUs = tap->pass.tickUs;
            pending = tap->pass.pending;
        }
        sizes.pendingEvents =
            static_cast<int>(std::lround(quantileOf(pending, 0.5)));
        std::fprintf(stderr,
                     "probe sizes: %d pending events, %d queries per "
                     "%.0f s window, %.1f arrivals/s per engine shard\n",
                     sizes.pendingEvents, sizes.windowSamples,
                     sizes.windowSec, engine.arrivalsPerShardSec);
        std::map<std::string, double> probes = perfbench::runLayerProbes(
            sizes, engine, workers, 0.15 * budget, &tap->spans);
        if (probes["sim.cross_shard_variants"] != 1.0)
            bench.fail("sim.cross_shard_posts differs between engine "
                       "probe runs at 1 and n workers");
        exact["sim.cross_shard_posts"] = probes["sim.cross_shard_posts"];
        double tickSum = 0.0;
        for (const double us : tickUs)
            tickSum += us;
        double runSum = 0.0;
        for (const double ms : firstTap.runMs)
            runSum += ms;
        const int jobs = kind == Kind::Arena ? workers : 1;

        metrics = {
            {"sim.dispatch_ns", probes["sim.dispatch_ns"], "ns"},
            {"sim.cancel_ns", probes["sim.cancel_ns"], "ns"},
            {"sim.window_us_1w", probes["sim.window_us_1w"], "us"},
            {"sim.window_us_nw", probes["sim.window_us_nw"], "us"},
            {"sim.cross_shard_posts", exact["sim.cross_shard_posts"],
             "count"},
            {"workloads.sample_ns", probes["workloads.sample_ns"], "ns"},
            {"workloads.profile_ms", probes["workloads.profile_ms"], "ms"},
            {"app.submitted", exact["app.submitted"], "count"},
            {"app.completed", exact["app.completed"], "count"},
            {"app.hops", exact["app.hops"], "count"},
            {"core.intervals", exact["core.intervals"], "count"},
            {"core.reports", exact["core.reports"], "count"},
            {"core.tick_us_p50", quantileOf(tickUs, 0.5), "us"},
            {"core.tick_us_p99", quantileOf(tickUs, 0.99), "us"},
            {"core.tick_s_total", tickSum / 1e6, "s"},
            {"core.metric_calls", exact["core.metric_calls"], "count"},
            {"core.metric_ns",
             firstTap.metricCalls
                 ? firstTap.metricNs /
                     static_cast<double>(firstTap.metricCalls)
                 : 0.0,
             "ns"},
            {"core.recycle_calls", exact["core.recycle_calls"], "count"},
            {"core.recycle_us",
             firstTap.recycleCalls
                 ? firstTap.recycleNs /
                     static_cast<double>(firstTap.recycleCalls) / 1e3
                 : 0.0,
             "us"},
            {"core.rank_us", probes["core.rank_us"], "us"},
            {"core.selects", exact["core.selects"], "count"},
            {"core.recycles", exact["core.recycles"], "count"},
            {"core.withdraws", exact["core.withdraws"], "count"},
            {"core.plans", exact["core.plans"], "count"},
            {"core.stale_skips", exact["core.stale_skips"], "count"},
            {"core.agreement_rate", exact["core.agreement_rate"], "ratio"},
            {"core.actuation_failures", exact["core.actuation_failures"],
             "count"},
            {"stats.window_add_ns", probes["stats.window_add_ns"], "ns"},
            {"stats.quantiles_us", probes["stats.quantiles_us"], "us"},
            {"stats.p2_add_ns", probes["stats.p2_add_ns"], "ns"},
            {"power.lookup_ns", probes["power.lookup_ns"], "ns"},
            {"power.recycled_watts", exact["power.recycled_watts"], "W"},
            {"power.recycle_donor_steps", exact["power.recycle_donor_steps"],
             "count"},
            {"rpc.malformed_reports", exact["rpc.malformed_reports"],
             "count"},
            {"faults.bus_dropped", exact["faults.bus_dropped"], "count"},
            {"faults.bus_duplicated", exact["faults.bus_duplicated"],
             "count"},
            {"faults.wire_stale", exact["faults.wire_stale"], "count"},
            {"faults.wire_truncated", exact["faults.wire_truncated"],
             "count"},
            {"faults.perfctl_dropped", exact["faults.perfctl_dropped"],
             "count"},
            {"obs.observer_tax_pct",
             100.0 * (runMean(on) - runMean(off)) / runMean(off), "%"},
            {"obs.timeseries_tax_pct", 100.0 * samplingTax, "%"},
            {"obs.trace_overhead_pct",
             100.0 * (runMean(traced) - plainS) / plainS, "%"},
            {"cluster.rebalances", exact["cluster.rebalances"], "count"},
            {"cluster.reports", exact["cluster.reports"], "count"},
            {"cluster.reports_dropped", exact["cluster.reports_dropped"],
             "count"},
            {"cluster.grants", exact["cluster.grants"], "count"},
            {"cluster.freeze_events", exact["cluster.freeze_events"],
             "count"},
            {"cluster.report_ok_ratio", exact["cluster.report_ok_ratio"],
             "ratio"},
            {"cluster.decisions", exact["cluster.decisions"], "count"},
            {"exp.runs", exact["exp.runs"], "count"},
            {"exp.run_ms_p50", quantileOf(firstTap.runMs, 0.5), "ms"},
            {"exp.run_ms_p99", quantileOf(firstTap.runMs, 0.99), "ms"},
            {"exp.sweep_busy_frac", runSum / 1e3 / (firstWall * jobs),
             "ratio"},
        };
        if (exact["perfbench.unreadable_dumps"] > 0)
            bench.fail("unreadable metrics dump");
    }

    // Human-readable report on stderr; the JSON line is stdout's last.
    printTable(args.trace ? "per-layer metrics (traced run)"
                          : "end-to-end metrics (tracing off)",
               metrics);
    if (tap) {
        std::fprintf(stderr, "span self time (traced run)\n");
        for (const auto &[name, lt] : tap->spans.layerTimes())
            std::fprintf(stderr,
                         "  %-22s n=%-7" PRIu64 " total %10.3f ms  "
                         "self %10.3f ms\n",
                         name.c_str(), lt.count, lt.totalUs / 1e3,
                         lt.selfUs / 1e3);
        const std::string spansPath = args.out + "/" + wl.name + "-" +
            std::to_string(seed) + ".spans.jsonl";
        std::ofstream spansOut(spansPath, std::ios::binary);
        tap->spans.writeJsonLines(spansOut);
        std::fprintf(stderr, "spans written to %s\n", spansPath.c_str());
    }
    std::fprintf(stderr, "sim_digest per run:\n");
    for (const auto &[name, d] : bench.digests())
        std::fprintf(stderr, "  %s %s\n", hex64(d).c_str(), name.c_str());
    const double failedFrac = static_cast<double>(bench.failed()) /
        static_cast<double>(std::max<std::uint64_t>(bench.attempted(), 1));
    std::fprintf(stderr,
                 "attempted %" PRIu64 " failed %" PRIu64
                 " failed_frac %g\n",
                 bench.attempted(), bench.failed(), failedFrac);
    for (const auto &why : bench.failures())
        std::fprintf(stderr, "  FAIL %s\n", why.c_str());

    // Self-check record: digests and exact counts, compared across runs
    // of the same binary by run.py.
    {
        JsonObject digests;
        for (const auto &[name, d] : bench.digests())
            digests[name] = JsonValue(hex64(d));
        JsonObject counts;
        for (const auto &[name, v] : exact)
            counts[name] = JsonValue(v);
        JsonObject check;
        check["digests"] = JsonValue(std::move(digests));
        check["exact"] = JsonValue(std::move(counts));
        std::ofstream out(args.out + "/" + wl.name + "-" +
                              std::to_string(seed) + "-t" +
                              (args.trace ? "1" : "0") + ".check.json",
                          std::ios::binary);
        out << JsonValue(std::move(check)).dump() << "\n";
    }

    JsonObject values;
    for (const auto &m : metrics) {
        JsonObject v;
        v["value"] = JsonValue(m.value);
        v["unit"] = JsonValue(m.unit);
        values[m.name] = JsonValue(std::move(v));
    }
    JsonObject result;
    result["correct"] = JsonValue(bench.failed() == 0);
    result["attempted"] = JsonValue(static_cast<double>(bench.attempted()));
    result["failed"] = JsonValue(static_cast<double>(bench.failed()));
    result["metrics"] = JsonValue(std::move(values));
    std::printf("%s\n", JsonValue(std::move(result)).dump().c_str());
    return 0;
}
