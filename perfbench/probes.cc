#include "probes.h"

#include <algorithm>
#include <memory>
#include <set>

#include "app/pipeline.h"
#include "common/rng.h"
#include "core/bottleneck.h"
#include "hal/chip.h"
#include "power/power_model.h"
#include "rpc/bus.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "stats/percentile.h"
#include "stats/window.h"
#include "workloads/profiler.h"

namespace perfbench {

namespace {

using namespace pc;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Draw @p sample repeatedly for @p budgetSec, at least @p minSamples
 * times, and return the median draw.
 */
template <typename Sample>
double
medianSample(double budgetSec, int minSamples, Sample &&sample)
{
    std::vector<double> draws;
    const auto deadline = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(budgetSec));
    while (static_cast<int>(draws.size()) < minSamples ||
           (Clock::now() < deadline && draws.size() < 200000))
        draws.push_back(sample());
    return median(draws);
}

/** Median ns per operation of @p batch (which returns its op count). */
template <typename Batch>
double
medianNsPerOp(double budgetSec, int minBatches, Batch &&batch)
{
    return medianSample(budgetSec, minBatches, [&]() {
        const auto t0 = Clock::now();
        const double ops = batch();
        const auto t1 = Clock::now();
        return std::chrono::duration<double, std::nano>(t1 - t0).count() /
            ops;
    });
}

volatile double gSink = 0.0;

constexpr int kBatch = 1000;

/** Gaps of the hold model, drawn once so the probe times no Rng. */
struct HoldGaps
{
    std::vector<SimTime> gaps;
    std::size_t next = 0;

    SimTime
    draw()
    {
        const SimTime g = gaps[next];
        next = (next + 1) & (gaps.size() - 1);
        return g;
    }
};

/**
 * One event of the dispatch probe's hold model: each firing schedules
 * its successor a uniform 1..2P µs later, so the heap stays at exactly
 * P pending events and dispatches run at about one per simulated µs.
 */
struct HoldEvent
{
    Simulator *sim = nullptr;
    HoldGaps *gaps = nullptr;

    void
    fire()
    {
        sim->scheduleAfter(gaps->draw(), [this]() { fire(); });
    }
};

/** schedule+dispatch at @p pending heap entries. */
double
probeDispatchNs(int pending, double budget)
{
    Simulator sim;
    const int p = std::max(pending, 1);
    Rng rng(0xd15);
    HoldGaps gaps;
    gaps.gaps.resize(4096);
    for (auto &g : gaps.gaps)
        g = SimTime::usec(rng.uniformInt(1, 2 * static_cast<std::int64_t>(p)));
    std::vector<HoldEvent> events(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
        HoldEvent &e = events[static_cast<std::size_t>(i)];
        e = HoldEvent{&sim, &gaps};
        sim.scheduleAt(SimTime::usec(i + 1), [&e]() { e.fire(); });
    }
    return medianNsPerOp(budget, 5, [&]() {
        const std::uint64_t before = sim.dispatchedEvents();
        sim.runUntil(sim.now() + SimTime::usec(kBatch));
        return static_cast<double>(sim.dispatchedEvents() - before);
    });
}

/** schedule+cancel over @p pending live far-future heap entries. */
double
probeCancelNs(int pending, double budget)
{
    Simulator sim;
    for (int i = 0; i < pending; ++i)
        sim.scheduleAt(SimTime::sec(1e6) + SimTime::usec(i), []() {});
    return medianNsPerOp(budget, 5, [&]() {
        const SimTime base = sim.now();
        for (int i = 0; i < kBatch; ++i)
            sim.cancel(sim.scheduleAt(base + SimTime::usec(i + 1), []() {}));
        sim.runUntil(base + SimTime::usec(kBatch));
        return static_cast<double>(kBatch);
    });
}

/**
 * One shard of the engine probe: Poisson arrivals, a fraction of which
 * post a delivery to a uniformly chosen other shard one lookahead
 * later — the shape of mega's front-end spray, without the stack.
 */
struct SprayShard
{
    ShardedEngine *engine = nullptr;
    std::vector<std::unique_ptr<SprayShard>> *all = nullptr;
    Rng rng{0};
    int index = 0;
    double meanGapSec = 0.0;
    double spray = 0.0;
    SimTime lookahead;
    std::uint64_t received = 0;

    void
    arrive()
    {
        Simulator &sim = engine->shard(index);
        const double u = rng.uniform(0.0, 1.0);
        auto dst = static_cast<int>(rng.uniformInt(
            0, static_cast<std::int64_t>(all->size()) - 2));
        if (u < spray) {
            if (dst >= index)
                ++dst;
            SprayShard *to = (*all)[static_cast<std::size_t>(dst)].get();
            engine->post(index, dst, sim.now() + lookahead,
                         [to]() { ++to->received; });
        }
        sim.scheduleAfter(SimTime::sec(rng.exponential(meanGapSec)),
                          [this]() { arrive(); });
    }
};

/** Host µs per window of one engine run; *posts = cross-shard events. */
double
engineWindowUs(const EngineProbeSizes &sz, int workers,
               std::uint64_t *posts)
{
    const SimTime lookahead = SimTime::sec(sz.lookaheadSec);
    ShardedEngine engine(sz.shards, lookahead);
    std::vector<std::unique_ptr<SprayShard>> shards;
    for (int i = 0; i < sz.shards; ++i) {
        auto s = std::make_unique<SprayShard>();
        s->engine = &engine;
        s->all = &shards;
        s->rng = Rng(sz.seed * 1000003ull + static_cast<std::uint64_t>(i));
        s->index = i;
        s->meanGapSec = 1.0 / sz.arrivalsPerShardSec;
        s->spray = sz.sprayFraction;
        s->lookahead = lookahead;
        shards.push_back(std::move(s));
    }
    for (auto &s : shards) {
        SprayShard *sp = s.get();
        engine.shard(sp->index).scheduleAfter(SimTime::usec(1),
                                              [sp]() { sp->arrive(); });
    }
    const auto t0 = Clock::now();
    engine.run(SimTime::sec(sz.horizonSec), workers);
    const auto t1 = Clock::now();
    *posts = engine.crossShardEvents();
    const double windows = sz.horizonSec / sz.lookaheadSec;
    return std::chrono::duration<double, std::micro>(t1 - t0).count() /
        windows;
}

int
refMhz()
{
    return static_cast<int>(
        PowerModel::haswell().ladder().freqAt(0).value());
}

double
probeSampleNs(const ProbeSizes &sz, double budget)
{
    Rng rng(sz.profileSeed);
    const int mhz = refMhz();
    std::size_t m = 0;
    return medianNsPerOp(budget, 5, [&]() {
        for (int i = 0; i < kBatch; ++i) {
            auto demands = sz.models[m].sampleDemands(rng, mhz);
            gSink = gSink + static_cast<double>(demands.size());
            m = (m + 1) % sz.models.size();
        }
        return static_cast<double>(kBatch);
    });
}

double
probeProfileMs(const ProbeSizes &sz, double budget)
{
    const PowerModel model = PowerModel::haswell();
    const OfflineProfiler profiler;
    // The runs' own cache key, so the cache is warm again afterwards.
    const double ns = medianNsPerOp(budget, 3, [&]() {
        OfflineProfiler::clearProfileCache();
        for (const auto &wl : sz.models)
            profiler.profileWorkload(wl, model, sz.profileSeed);
        return 1.0;
    });
    return ns / 1e6;
}

double
probeRankUs(const ProbeSizes &sz, double budget)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 16);
    MessageBus bus(&sim);
    MultiStageApp app(&sim, &chip, &bus, sz.rankModel.name(),
                      sz.rankModel.layout(sz.rankLayout,
                                          model.ladder().midLevel()));
    const SimTime span = SimTime::sec(sz.windowSec);
    BottleneckIdentifier identifier(span);

    // Fill the windows the way completions do: each query visits one
    // instance per stage (round robin), all inside one window span.
    Rng rng(sz.profileSeed ^ 0x7a11ull);
    std::vector<std::size_t> next(
        static_cast<std::size_t>(app.numStages()), 0);
    for (int i = 0; i < sz.windowSamples; ++i) {
        const SimTime t = SimTime::sec(sz.windowSec * i /
                                       sz.windowSamples);
        Query q(i, t, sz.rankModel.sampleDemands(rng, refMhz()));
        for (int s = 0; s < app.numStages(); ++s) {
            const auto insts = app.stage(s).instances();
            auto &k = next[static_cast<std::size_t>(s)];
            const auto *inst = insts[k % insts.size()];
            ++k;
            HopRecord hop;
            hop.instanceId = inst->id();
            hop.stageIndex = s;
            hop.enqueued = t;
            hop.started = t + SimTime::usec(rng.uniformInt(0, 2000));
            hop.finished =
                hop.started + SimTime::usec(rng.uniformInt(100, 5000));
            q.addHop(hop);
        }
        identifier.observe(t, q);
    }
    const SimTime now = span; // nothing is old enough to evict
    const double ns = medianNsPerOp(budget, 5, [&]() {
        for (int i = 0; i < 10; ++i) {
            auto ranked = identifier.rank(now, app);
            gSink = gSink + ranked.back().metric;
        }
        return 10.0;
    });
    return ns / 1e3;
}

double
probeWindowAddNs(const ProbeSizes &sz, double budget)
{
    const SimTime span = SimTime::sec(sz.windowSec);
    MovingWindow window(span);
    const std::int64_t dt = std::max<std::int64_t>(
        1, span.toUsec() / sz.windowSamples);
    std::int64_t t = 0;
    for (int i = 0; i < sz.windowSamples; ++i, t += dt)
        window.add(SimTime::usec(t), 1e-3 * static_cast<double>(i % 97));
    return medianNsPerOp(budget, 5, [&]() {
        for (int i = 0; i < kBatch; ++i, t += dt)
            window.add(SimTime::usec(t),
                       1e-3 * static_cast<double>(i % 97));
        gSink = gSink + window.mean();
        return static_cast<double>(kBatch);
    });
}

double
probeQuantilesUs(const ProbeSizes &sz, double budget)
{
    const SimTime span = SimTime::sec(sz.windowSec);
    MovingWindow window(span);
    Rng rng(sz.profileSeed ^ 0x9a9aull);
    const std::int64_t dt = std::max<std::int64_t>(
        1, span.toUsec() / sz.windowSamples);
    for (int i = 0; i < sz.windowSamples; ++i)
        window.add(SimTime::usec(i * dt), rng.lognormal(1e-3, 0.8));
    static constexpr double kQs[2] = {0.95, 0.99};
    double out[2];
    const double ns = medianNsPerOp(budget, 5, [&]() {
        for (int i = 0; i < 10; ++i) {
            window.quantiles(kQs, out, 2);
            gSink = gSink + out[1];
        }
        return 10.0;
    });
    return ns / 1e3;
}

double
probeP2AddNs(double budget)
{
    P2Quantile q(0.99);
    Rng rng(7);
    std::vector<double> values(4096);
    for (auto &v : values)
        v = rng.lognormal(1.0, 0.5);
    std::size_t k = 0;
    return medianNsPerOp(budget, 5, [&]() {
        for (int i = 0; i < kBatch; ++i)
            q.add(values[k++ & 4095]);
        gSink = gSink + q.value();
        return static_cast<double>(kBatch);
    });
}

double
probeLookupNs(double budget)
{
    const PowerModel model = PowerModel::haswell();
    const int levels = model.ladder().numLevels();
    int lvl = 0;
    return medianNsPerOp(budget, 5, [&]() {
        double sum = 0.0;
        for (int i = 0; i < kBatch; ++i) {
            sum += model.activeWatts(lvl).value();
            lvl = lvl + 1 == levels ? 0 : lvl + 1;
        }
        gSink = gSink + sum;
        return static_cast<double>(kBatch);
    });
}

} // namespace

std::map<std::string, double>
runLayerProbes(const ProbeSizes &sizes, const EngineProbeSizes &engine,
               int workers, double budgetSec, SpanLog *spans)
{
    ScopedSpan root(spans, "probes");
    // The two engine probes run whole simulations per batch; give them
    // a larger share than the per-call probes.
    const double unit = budgetSec / 14.0;
    std::map<std::string, double> out;
    auto timed = [&](const char *name, double share, auto &&fn) {
        ScopedSpan span(spans, std::string("probe.") + name, root.id());
        out[name] = fn(unit * share);
    };
    timed("sim.dispatch_ns", 1, [&](double b) {
        return probeDispatchNs(sizes.pendingEvents, b);
    });
    timed("sim.cancel_ns", 1, [&](double b) {
        return probeCancelNs(sizes.pendingEvents, b);
    });
    // Every engine run, at 1 and at n workers, must post the same count.
    std::set<std::uint64_t> posts;
    auto windowUs = [&](int w) {
        std::uint64_t n = 0;
        const double us = engineWindowUs(engine, w, &n);
        posts.insert(n);
        return us;
    };
    timed("sim.window_us_1w", 2.5, [&](double b) {
        return medianSample(b, 3, [&]() { return windowUs(1); });
    });
    timed("sim.window_us_nw", 2.5, [&](double b) {
        return medianSample(b, 3, [&]() { return windowUs(workers); });
    });
    out["sim.cross_shard_posts"] = static_cast<double>(*posts.begin());
    out["sim.cross_shard_variants"] = static_cast<double>(posts.size());
    timed("workloads.sample_ns", 1,
          [&](double b) { return probeSampleNs(sizes, b); });
    timed("workloads.profile_ms", 1,
          [&](double b) { return probeProfileMs(sizes, b); });
    timed("core.rank_us", 1, [&](double b) { return probeRankUs(sizes, b); });
    timed("stats.window_add_ns", 1,
          [&](double b) { return probeWindowAddNs(sizes, b); });
    timed("stats.quantiles_us", 1,
          [&](double b) { return probeQuantilesUs(sizes, b); });
    timed("stats.p2_add_ns", 1, [](double b) { return probeP2AddNs(b); });
    timed("power.lookup_ns", 1, [](double b) { return probeLookupNs(b); });
    return out;
}

} // namespace perfbench
