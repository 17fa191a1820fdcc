/**
 * @file
 * Parallel sweep engine for independent scenario runs.
 *
 * Every figure reproduction and ablation sweeps dozens of independent
 * Scenario runs. Each run is a self-contained deterministic
 * discrete-event simulation (own Simulator, own seeded Rng streams),
 * so SweepRunner executes them on a fixed-size thread pool: results
 * are bit-identical regardless of thread count or completion order and
 * are always collected in submission order.
 *
 * A determinism audit rides along: it re-runs a sampled subset of
 * sweep points single-threaded after the parallel pass and panics (by
 * default) on any divergence from the parallel results.
 */

#ifndef PC_EXP_SWEEP_H
#define PC_EXP_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "exp/runner.h"
#include "obs/telemetry.h"

namespace pc {

struct SweepOptions
{
    /** Worker threads; <= 0 means one per hardware thread. */
    int jobs = 0;

    /**
     * Read by nothing: kept only because perfbench assigns it, and
     * removed with the next change to the benchmark.
     */
    bool useCache = false;

    /** Re-run a sampled subset single-threaded and compare. */
    bool audit = false;
    /** Fraction of the sweep points the audit re-runs. */
    double auditFraction = 0.25;
    /** Audit at least this many points (when the sweep has any). */
    int auditMinRuns = 1;
    /** Seed for the audit's deterministic sample choice. */
    std::uint64_t auditSeed = 0x5eedau;
    /** fatal() on divergence (default); false = report via report(). */
    bool auditFatal = true;

    /** Forwarded to ExperimentRunner for every run. */
    bool recordTraces = false;
    SimTime sampleInterval = SimTime::sec(5);

    /**
     * Worker threads driving the shards of a sharded run (a scenario
     * with nodeGroups > 1); <= 0 means one per hardware thread. Pure
     * execution knob: results and artifacts are bit-identical at any
     * value.
     */
    int shards = 1;

    /** Collect per-run tail-attribution reports (--attribution). */
    bool attribution = false;

    /** Collect per-run decision-audit summaries (RunResult::audit). */
    bool collectAudit = false;

    /** Track the latency SLO per run (RunResult::slo). */
    SloConfig slo;

    /** Collect per-run critical-path summaries (RunResult::critpath). */
    bool collectCritPath = false;

    /**
     * Observability outputs (--trace-out/--metrics-out). In multi-
     * scenario sweeps the paths are resolved per scenario so parallel
     * runs never interleave writes to one file. The determinism audit
     * re-runs without telemetry and never clobbers the parallel pass's
     * files.
     */
    TelemetryConfig telemetry;
};

/** One audit mismatch: parallel and serial runs disagreed. */
struct SweepDivergence
{
    std::size_t index = 0;
    std::string scenario;
    /** Serialized forms of both results (for diffing). */
    std::string parallelJson;
    std::string serialJson;
};

/** What happened during the last runAll(). */
struct SweepReport
{
    std::size_t total = 0;
    std::size_t audited = 0;
    std::vector<SweepDivergence> divergences;
};

class SweepRunner
{
  public:
    using RunFn = std::function<RunResult(const Scenario &)>;

    explicit SweepRunner(SweepOptions options = {});

    /**
     * Run every scenario and return results in submission order.
     * Safe to call repeatedly; report() describes the last call.
     */
    std::vector<RunResult> runAll(const std::vector<Scenario> &scenarios);

    /** Convenience single-run (still audited per options). */
    RunResult runOne(const Scenario &scenario);

    const SweepReport &report() const { return report_; }
    const SweepOptions &options() const { return options_; }

    /** Effective worker count after resolving jobs <= 0. */
    int effectiveJobs() const;

    /**
     * Replace the simulation function (tests inject stubs, e.g. a
     * deliberately nondeterministic scenario for the audit test).
     */
    void setRunFunction(RunFn fn);

  private:
    RunResult execute(const Scenario &scenario,
                      const TelemetryConfig *telemetry) const;
    void audit(const std::vector<Scenario> &scenarios,
               const std::vector<RunResult> &results);

    SweepOptions options_;
    /** Test-injected override; null = the real ExperimentRunner. */
    RunFn runFn_;
    SweepReport report_;
};

/**
 * Register the standard sweep flags: --jobs, --shards, --audit and the
 * telemetry flags. Shared by every bench binary and the CLI.
 */
void addSweepFlags(FlagSet *flags);

/** Build SweepOptions from parsed standard sweep flags. */
SweepOptions sweepOptionsFromFlags(const FlagSet &flags);

/**
 * Whole argv handling for bench binaries: parse the standard sweep
 * flags, print usage and exit on --help or errors, and return the
 * resulting options.
 */
SweepOptions parseSweepArgs(const char *program, int argc,
                            const char *const *argv);

} // namespace pc

#endif // PC_EXP_SWEEP_H
