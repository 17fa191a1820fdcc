/**
 * @file
 * Chaos sweep: the control plane under a lossy fabric.
 *
 * Runs a matrix of fault plans — message loss, duplication and
 * reordering, instance crashes with recovery, stale/truncated wire
 * telemetry, RAPL read errors and dropped PERF_CTL writes — against
 * the Table 2 Sirius/PowerChief scenario and reports how the control
 * plane held up. Two hard invariants are enforced *inside* the
 * ExperimentRunner for every fault run and abort the process if
 * violated: query conservation (submitted == completed + resident)
 * and budget-ledger agreement (reserved level == actual level for
 * every live instance). With --audit the sweep engine additionally
 * re-runs sampled points single-threaded and panics on any divergence
 * from the parallel results, pinning bit-reproducibility of faulty
 * runs at any --jobs value.
 *
 * --faults FILE replaces the built-in matrix with one externally
 * supplied plan (schema in docs/ROBUSTNESS.md).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "faults/fault_plan.h"

using namespace pc;

namespace {

struct MatrixPoint
{
    const char *name;
    FaultPlan plan;
    bool wireReports = false;
    SimTime staleWindow = SimTime::zero();
};

FaultPlan
basePlan(std::uint64_t seed)
{
    FaultPlan plan;
    plan.active = true;
    plan.seed = seed;
    return plan;
}

std::vector<MatrixPoint>
builtinMatrix(SimTime duration)
{
    std::vector<MatrixPoint> matrix;

    // Zero-rate control: an armed injector that never acts. The runner
    // still checks the invariants; tests/test_faults.cc separately pins
    // that this configuration is byte-identical to no fault layer.
    matrix.push_back({"zero-rate", basePlan(1)});

    {
        MatrixPoint p{"drop", basePlan(2)};
        BusFaultRule rule;
        rule.dropRate = 0.05;
        p.plan.bus.push_back(rule);
        matrix.push_back(std::move(p));
    }
    {
        MatrixPoint p{"dup-reorder", basePlan(3)};
        BusFaultRule rule;
        rule.duplicateRate = 0.05;
        rule.reorderRate = 0.2;
        rule.reorderJitterMax = SimTime::msec(5);
        p.plan.bus.push_back(rule);
        matrix.push_back(std::move(p));
    }
    {
        MatrixPoint p{"crash", basePlan(4)};
        CrashEvent crash;
        crash.stage = 1;
        crash.at = SimTime::sec(duration.toSec() * 0.4);
        crash.recovery = SimTime::sec(10);
        p.plan.crashes.push_back(crash);
        matrix.push_back(std::move(p));
    }
    {
        MatrixPoint p{"stale-truncate", basePlan(5)};
        p.plan.telemetry.truncateRate = 0.1;
        p.plan.telemetry.staleRate = 0.1;
        p.wireReports = true;
        p.staleWindow = SimTime::sec(60);
        matrix.push_back(std::move(p));
    }
    {
        MatrixPoint p{"rapl-perfctl", basePlan(6)};
        p.plan.telemetry.raplFailRate = 0.2;
        p.plan.telemetry.perfCtlFailRate = 0.3;
        matrix.push_back(std::move(p));
    }
    {
        MatrixPoint p{"combined", basePlan(7)};
        BusFaultRule rule;
        rule.dropRate = 0.02;
        rule.reorderRate = 0.1;
        p.plan.bus.push_back(rule);
        CrashEvent crash;
        crash.stage = 2;
        crash.at = SimTime::sec(duration.toSec() * 0.3);
        crash.recovery = SimTime::sec(10);
        p.plan.crashes.push_back(crash);
        p.plan.telemetry.truncateRate = 0.05;
        p.plan.telemetry.perfCtlFailRate = 0.2;
        p.wireReports = true;
        p.staleWindow = SimTime::sec(60);
        matrix.push_back(std::move(p));
    }
    return matrix;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("chaos_sweep");
    addSweepFlags(&flags);
    flags.addString("faults", "",
                    "JSON fault plan file; replaces the built-in "
                    "fault matrix with this single plan");
    flags.addDouble("duration-sec", 150.0,
                    "run length of each matrix point (seconds)");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << flags.error() << "\n";
        flags.printUsage(flags.helpRequested() ? std::cout : std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    const SimTime duration =
        SimTime::sec(flags.getDouble("duration-sec"));
    const WorkloadModel sirius = WorkloadModel::sirius();

    std::vector<MatrixPoint> matrix;
    if (!flags.getString("faults").empty()) {
        std::string error;
        auto plan = faultPlanFromFile(flags.getString("faults"), &error);
        if (!plan) {
            std::cerr << "chaos_sweep: " << error << "\n";
            return 2;
        }
        MatrixPoint p{"file", std::move(*plan)};
        p.wireReports = p.plan.telemetry.truncateRate > 0.0 ||
            p.plan.telemetry.staleRate > 0.0;
        p.staleWindow = SimTime::sec(60);
        matrix.push_back(std::move(p));
    } else {
        matrix = builtinMatrix(duration);
    }

    std::vector<Scenario> scenarios;
    scenarios.reserve(matrix.size());
    for (const auto &point : matrix) {
        Scenario sc = Scenario::mitigation(sirius, LoadLevel::High,
                                           PolicyKind::PowerChief);
        sc.name = std::string("chaos/") + point.name;
        sc.duration = duration;
        sc.warmup = SimTime::sec(duration.toSec() / 5.0);
        sc.faults = point.plan;
        sc.wireReports = point.wireReports;
        sc.control.staleWindow = point.staleWindow;
        scenarios.push_back(std::move(sc));
    }

    SweepRunner sweep(sweepOptionsFromFlags(flags));
    printBanner(std::cout, "Chaos sweep",
                "control-plane robustness under injected fabric, "
                "crash and telemetry faults");
    const std::vector<RunResult> runs = sweep.runAll(scenarios);

    bool ok = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &run = runs[i];
        std::printf("%-20s submitted %6llu  completed %6llu  "
                    "avg %7.4f s  p99 %7.4f s  %6.2f W\n",
                    scenarios[i].name.c_str(),
                    static_cast<unsigned long long>(run.submitted),
                    static_cast<unsigned long long>(run.completed),
                    run.avgLatencySec, run.p99LatencySec,
                    run.avgPowerWatts);
        // The in-run invariants already aborted on conservation or
        // ledger violations; here we only require that the application
        // made progress despite the faults.
        if (run.completed == 0) {
            std::printf("  FAIL: no queries completed\n");
            ok = false;
        }
    }
    const SweepReport &report = sweep.report();
    if (!report.divergences.empty()) {
        std::printf("FAIL: %zu determinism divergence(s)\n",
                    report.divergences.size());
        ok = false;
    }
    std::printf("%zu points, %zu audited\n", report.total,
                report.audited);
    if (!ok)
        return 1;
    std::printf("chaos sweep OK: conservation and budget-ledger "
                "invariants held across the fault matrix\n");
    return 0;
}
