#include "exp/sweep.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "exp/result_cache.h"
#include "exp/thread_pool.h"
#include "obs/metrics.h"

namespace pc {

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options))
{
}

RunResult
SweepRunner::execute(const Scenario &scenario,
                     const TelemetryConfig *telemetry) const
{
    if (runFn_)
        return runFn_(scenario);
    ExperimentRunner runner(options_.recordTraces,
                            options_.sampleInterval,
                            options_.attribution,
                            options_.collectAudit, options_.slo,
                            options_.collectCritPath);
    runner.setShards(options_.shards);
    return runner.run(scenario, telemetry);
}

void
SweepRunner::setRunFunction(RunFn fn)
{
    runFn_ = std::move(fn);
}

int
SweepRunner::effectiveJobs() const
{
    if (options_.jobs > 0)
        return options_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<RunResult>
SweepRunner::runAll(const std::vector<Scenario> &scenarios)
{
    report_ = SweepReport{};
    report_.total = scenarios.size();

    std::vector<RunResult> results(scenarios.size());

    const bool telemetryOn = options_.telemetry.anyEnabled();
    std::vector<TelemetryConfig> telemetryConfigs;
    if (telemetryOn) {
        const bool multiRun = scenarios.size() > 1;
        telemetryConfigs.reserve(scenarios.size());
        for (const auto &sc : scenarios)
            telemetryConfigs.push_back(
                options_.telemetry.resolved(sc.name, multiRun));
    }

    // Each task writes only its own slot, runs its own Simulator, and
    // draws from its own seeded Rng streams — no shared mutable state.
    {
        ThreadPool pool(std::min<int>(
            effectiveJobs(), std::max<std::size_t>(scenarios.size(), 1)));
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            pool.submit([this, i, telemetryOn, &telemetryConfigs,
                         &scenarios, &results]() {
                results[i] = execute(scenarios[i],
                                     telemetryOn ? &telemetryConfigs[i]
                                                 : nullptr);
            });
        }
        pool.wait();
    }

    // Cross-run totals live in the process-wide registry.
    MetricsRegistry::global()
        .counter("sweep.runs_total")
        .add(static_cast<double>(scenarios.size()));

    if (options_.audit)
        audit(scenarios, results);
    return results;
}

RunResult
SweepRunner::runOne(const Scenario &scenario)
{
    return runAll({scenario}).front();
}

void
SweepRunner::audit(const std::vector<Scenario> &scenarios,
                   const std::vector<RunResult> &results)
{
    if (scenarios.empty())
        return;
    std::vector<std::size_t> sample(scenarios.size());
    std::iota(sample.begin(), sample.end(), std::size_t{0});

    std::size_t want = static_cast<std::size_t>(
        options_.auditFraction * static_cast<double>(sample.size()) + 0.5);
    want = std::clamp<std::size_t>(
        want, std::min<std::size_t>(
                  static_cast<std::size_t>(
                      std::max(options_.auditMinRuns, 1)),
                  sample.size()),
        sample.size());

    // Deterministic sample: Fisher-Yates prefix with a seeded Rng.
    Rng rng(options_.auditSeed);
    for (std::size_t i = 0; i < want; ++i) {
        const auto j = static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(sample.size()) - 1));
        std::swap(sample[i], sample[j]);
    }
    sample.resize(want);
    std::sort(sample.begin(), sample.end());

    for (const std::size_t i : sample) {
        ++report_.audited;
        // No telemetry on the serial re-run: it must not clobber the
        // files the parallel pass just wrote.
        const RunResult serial = execute(scenarios[i], nullptr);
        const std::string parallelJson =
            runResultToJson(results[i]).dump();
        const std::string serialJson = runResultToJson(serial).dump();
        if (parallelJson == serialJson)
            continue;
        if (options_.auditFatal) {
            fatal("determinism audit: sweep point %zu ('%s') diverged "
                  "between the parallel and single-threaded runs — the "
                  "simulation is not a pure function of its scenario",
                  i, scenarios[i].name.c_str());
        }
        SweepDivergence divergence;
        divergence.index = i;
        divergence.scenario = scenarios[i].name;
        divergence.parallelJson = parallelJson;
        divergence.serialJson = serialJson;
        report_.divergences.push_back(std::move(divergence));
    }
}

void
addSweepFlags(FlagSet *flags)
{
    flags->addInt("jobs", 0,
                  "parallel sweep workers (0 = one per hardware "
                  "thread)");
    flags->addInt("shards", 1,
                  "worker threads per sharded run (scenarios with "
                  "node groups; 0 = one per hardware thread). Results "
                  "are bit-identical at any value");
    flags->addBool("audit", false,
                   "re-run a sampled subset single-threaded and panic "
                   "on any determinism divergence");
    addTelemetryFlags(flags);
}

SweepOptions
sweepOptionsFromFlags(const FlagSet &flags)
{
    SweepOptions options;
    options.jobs = static_cast<int>(flags.getInt("jobs"));
    options.shards = static_cast<int>(flags.getInt("shards"));
    options.audit = flags.getBool("audit");
    options.attribution = flags.getBool("attribution");
    options.telemetry = telemetryConfigFromFlags(flags);
    options.slo = sloConfigFromFlags(flags);
    return options;
}

SweepOptions
parseSweepArgs(const char *program, int argc, const char *const *argv)
{
    FlagSet flags(program);
    addSweepFlags(&flags);
    if (!flags.parse(argc, argv)) {
        if (flags.helpRequested()) {
            flags.printUsage(std::cout);
            std::exit(0);
        }
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        flags.printUsage(std::cerr);
        std::exit(2);
    }
    return sweepOptionsFromFlags(flags);
}

} // namespace pc
