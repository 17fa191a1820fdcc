/**
 * @file
 * Policy arena: every control policy head-to-head over one matrix.
 *
 * Runs the full PolicyKind roster — baseline, the single-technique
 * boosters, PowerChief, the fixed-stage oracle probe, Pegasus, the
 * conservation variant, and the FastCap/CuttleSys rivals — over a
 * scenario matrix of workloads (Sirius, Senna NLP, Web Search), load
 * levels, power budgets, and fault planes (a zero-rate armed injector
 * and a lossy fabric with message drops, reordering and stale/
 * truncated wire telemetry). Every point goes through the SweepRunner
 * (--jobs parallelism, optional determinism audit) with traces and
 * decision-audit collection on, and the binary prints one comparison
 * table per matrix cell: p95/p99 tail latency, QoS violation rate,
 * actuated watts, and the audit's prediction MAPE.
 *
 * The table and the --out JSON report (schema "powerchief-arena-v3",
 * rendered by tools/arena_report.py) are pure functions of the
 * RunResults in submission order: no wall-clock timing or job counts
 * leak into them, so the report is byte-identical at any --jobs value.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "faults/fault_plan.h"

using namespace pc;

namespace {

struct FaultVariant
{
    const char *name;
    FaultPlan plan;
    bool wireReports = false;
    SimTime staleWindow = SimTime::zero();
};

/** One matrix cell: everything but the policy axis. */
struct Cell
{
    WorkloadModel workload;
    LoadLevel load = LoadLevel::Medium;
    double budgetWatts = 0.0;
    FaultVariant faults;
    double qosTargetSec = 0.0;
    int slowestStage = 0;
};

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

WorkloadModel
workloadByName(const std::string &name)
{
    if (name == "sirius")
        return WorkloadModel::sirius();
    if (name == "sirius-mixed")
        return WorkloadModel::siriusMixed();
    if (name == "nlp")
        return WorkloadModel::nlp();
    if (name == "websearch")
        return WorkloadModel::webSearch();
    fatal("arena: unknown workload '%s' (valid: sirius, sirius-mixed, "
          "nlp, websearch)",
          name.c_str());
}

LoadLevel
loadByName(const std::string &name)
{
    if (name == "low")
        return LoadLevel::Low;
    if (name == "medium")
        return LoadLevel::Medium;
    if (name == "high")
        return LoadLevel::High;
    fatal("arena: unknown load level '%s' (valid: low, medium, high)",
          name.c_str());
}

std::vector<FaultVariant>
faultVariants()
{
    std::vector<FaultVariant> variants;

    // Armed injector that never acts: the runner still enforces the
    // conservation and budget-ledger invariants on every point.
    FaultVariant clean{"clean", FaultPlan{}};
    clean.plan.active = true;
    clean.plan.seed = 17;
    variants.push_back(std::move(clean));

    FaultVariant lossy{"lossy", FaultPlan{}};
    lossy.plan.active = true;
    lossy.plan.seed = 18;
    BusFaultRule bus;
    bus.dropRate = 0.03;
    bus.reorderRate = 0.1;
    bus.reorderJitterMax = SimTime::msec(5);
    lossy.plan.bus.push_back(bus);
    lossy.plan.telemetry.staleRate = 0.1;
    lossy.plan.telemetry.truncateRate = 0.05;
    lossy.plan.telemetry.perfCtlFailRate = 0.2;
    lossy.wireReports = true;
    lossy.staleWindow = SimTime::sec(60);
    variants.push_back(std::move(lossy));
    return variants;
}

/**
 * QoS yardstick shared by every policy in a cell: 3x the sum of the
 * stage service means — loose enough that a working policy can meet
 * it, tight enough that a saturated stage blows through it.
 */
double
qosTargetFor(const WorkloadModel &workload)
{
    double sum = 0.0;
    for (const auto &stage : workload.stages())
        sum += stage.meanServiceSec;
    return 3.0 * sum;
}

int
slowestStageOf(const WorkloadModel &workload)
{
    int best = 0;
    for (int s = 1; s < workload.numStages(); ++s)
        if (workload.stage(s).meanServiceSec >
            workload.stage(best).meanServiceSec)
            best = s;
    return best;
}

Scenario
scenarioFor(const Cell &cell, PolicyKind policy, SimTime duration)
{
    Scenario sc =
        Scenario::mitigation(cell.workload, cell.load, policy);
    char budget[32];
    std::snprintf(budget, sizeof(budget), "%g", cell.budgetWatts);
    sc.name = std::string("arena/") + cell.workload.name() + "/" +
        toString(cell.load) + "/" + budget + "w/" + cell.faults.name +
        "/" + toString(policy);
    sc.duration = duration;
    sc.warmup = SimTime::sec(duration.toSec() / 5.0);
    sc.powerBudget = Watts(cell.budgetWatts);
    sc.qosTargetSec = cell.qosTargetSec;
    sc.fixedStage = cell.slowestStage;
    sc.faults = cell.faults.plan;
    sc.wireReports = cell.faults.wireReports;
    sc.control.staleWindow = cell.faults.staleWindow;
    return sc;
}

double
percentileOf(const TimeSeries &series, double pct)
{
    if (series.empty())
        return 0.0;
    std::vector<double> values;
    values.reserve(series.size());
    for (const auto &point : series.points())
        values.push_back(point.value);
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        pct * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

double
violationRateOf(const TimeSeries &series, double targetSec)
{
    if (series.empty())
        return 0.0;
    std::size_t over = 0;
    for (const auto &point : series.points())
        if (point.value > targetSec)
            ++over;
    return static_cast<double>(over) /
        static_cast<double>(series.size());
}

/**
 * SLO burn-rate accounting of one arena point: the run's recorded
 * per-completion latency series replayed through the SloTracker against
 * the cell's shared QoS yardstick. A pure function of the RunResult,
 * like every other report column.
 */
JsonValue
sloOf(const Cell &cell, const RunResult &run, SimTime duration)
{
    SloConfig config;
    config.enabled = true;
    SloTracker tracker(config, cell.qosTargetSec);
    for (const auto &point : run.latencySeries.points())
        tracker.observe(point.t, point.value);
    tracker.finish(duration);
    return sloReportToJson(tracker.report());
}

JsonValue
pointToJson(const Cell &cell, PolicyKind policy, const RunResult &run,
            SimTime duration)
{
    JsonObject obj;
    obj["workload"] = JsonValue(cell.workload.name());
    obj["load"] = JsonValue(toString(cell.load));
    obj["budget_w"] = JsonValue(cell.budgetWatts);
    obj["faults"] = JsonValue(cell.faults.name);
    obj["policy"] = JsonValue(std::string(toString(policy)));
    obj["submitted"] = JsonValue(static_cast<double>(run.submitted));
    obj["completed"] = JsonValue(static_cast<double>(run.completed));
    obj["avg_s"] = JsonValue(run.avgLatencySec);
    obj["p95_s"] = JsonValue(percentileOf(run.latencySeries, 0.95));
    obj["p99_s"] = JsonValue(run.p99LatencySec);
    obj["max_s"] = JsonValue(run.maxLatencySec);
    obj["qos_target_s"] = JsonValue(cell.qosTargetSec);
    obj["qos_violation_rate"] = JsonValue(
        violationRateOf(run.latencySeries, cell.qosTargetSec));
    obj["avg_power_w"] = JsonValue(run.avgPowerWatts);
    obj["energy_j"] = JsonValue(run.energyJoules);

    JsonObject audit;
    audit["mape_pct"] = JsonValue(run.audit.mapePct);
    audit["scored"] = JsonValue(static_cast<double>(run.audit.scored));
    audit["flips"] = JsonValue(static_cast<double>(run.audit.flips));
    audit["selects"] =
        JsonValue(static_cast<double>(run.audit.selects));
    audit["plans"] = JsonValue(static_cast<double>(run.audit.plans));
    audit["withdraws"] =
        JsonValue(static_cast<double>(run.audit.withdraws));
    audit["stale_skips"] =
        JsonValue(static_cast<double>(run.audit.staleSkips));
    audit["misboosts"] =
        JsonValue(static_cast<double>(run.audit.misboosts));
    obj["audit"] = JsonValue(std::move(audit));

    JsonObject critpath;
    critpath["agreement_rate"] =
        JsonValue(run.critpath.agreementRate);
    critpath["scored"] = JsonValue(
        static_cast<double>(run.critpath.scoredIntervals));
    critpath["agree"] = JsonValue(
        static_cast<double>(run.critpath.agreeIntervals));
    critpath["boost_intervals"] = JsonValue(
        static_cast<double>(run.critpath.boostIntervals));
    critpath["misboosts"] =
        JsonValue(static_cast<double>(run.critpath.misboosts));
    critpath["mean_shortening_pct"] =
        JsonValue(run.critpath.meanShorteningPct);
    obj["critpath"] = JsonValue(std::move(critpath));
    obj["slo"] = sloOf(cell, run, duration);
    return JsonValue(std::move(obj));
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("arena");
    addSweepFlags(&flags);
    flags.addDouble("duration-sec", 150.0,
                    "run length of each arena point (seconds)");
    flags.addString("workloads", "sirius,nlp,websearch",
                    "comma-separated workloads (sirius, sirius-mixed, "
                    "nlp, websearch)");
    flags.addString("loads", "medium,high",
                    "comma-separated load levels (low, medium, high)");
    flags.addString("budgets", "13.56,18.0",
                    "comma-separated power budgets in watts");
    flags.addString("out", "",
                    "write the JSON report (schema "
                    "powerchief-arena-v3) to this path");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << flags.error() << "\n";
        flags.printUsage(flags.helpRequested() ? std::cout : std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    const SimTime duration =
        SimTime::sec(flags.getDouble("duration-sec"));

    std::vector<Cell> cells;
    for (const auto &wl : splitCsv(flags.getString("workloads"))) {
        const WorkloadModel model = workloadByName(wl);
        for (const auto &ld : splitCsv(flags.getString("loads"))) {
            for (const auto &bw : splitCsv(flags.getString("budgets"))) {
                for (auto &fv : faultVariants()) {
                    Cell cell{model, loadByName(ld), std::stod(bw),
                              std::move(fv), qosTargetFor(model),
                              slowestStageOf(model)};
                    cells.push_back(std::move(cell));
                }
            }
        }
    }

    const std::vector<PolicyKind> policies = allPolicyKinds();
    std::vector<Scenario> scenarios;
    scenarios.reserve(cells.size() * policies.size());
    for (const auto &cell : cells)
        for (const PolicyKind policy : policies)
            scenarios.push_back(scenarioFor(cell, policy, duration));

    SweepOptions options = sweepOptionsFromFlags(flags);
    options.recordTraces = true;
    options.collectAudit = true;
    options.collectCritPath = true;
    SweepRunner sweep(options);

    printBanner(std::cout, "Policy arena",
                "every control policy head-to-head over the "
                "workload x load x budget x fault matrix");
    const std::vector<RunResult> runs = sweep.runAll(scenarios);

    bool ok = true;
    JsonArray points;
    points.reserve(runs.size());
    std::size_t runIdx = 0;
    for (const auto &cell : cells) {
        std::printf("\n%s @ %s load, %.2f W, %s fabric "
                    "(QoS %.2f s)\n",
                    cell.workload.name().c_str(), toString(cell.load),
                    cell.budgetWatts, cell.faults.name,
                    cell.qosTargetSec);
        std::printf("  %-20s %9s %9s %9s %8s %8s %8s %8s\n", "policy",
                    "avg s", "p95 s", "p99 s", "QoS.viol", "watts",
                    "MAPE %", "agree%");
        for (const PolicyKind policy : policies) {
            const RunResult &run = runs[runIdx++];
            std::printf("  %-20s %9.4f %9.4f %9.4f %7.1f%% %8.2f "
                        "%8.2f %7.1f%%\n",
                        toString(policy), run.avgLatencySec,
                        percentileOf(run.latencySeries, 0.95),
                        run.p99LatencySec,
                        100.0 * violationRateOf(run.latencySeries,
                                                cell.qosTargetSec),
                        run.avgPowerWatts, run.audit.mapePct,
                        100.0 * run.critpath.agreementRate);
            if (run.completed == 0) {
                std::printf("  FAIL: %s completed no queries\n",
                            toString(policy));
                ok = false;
            }
            points.push_back(
                pointToJson(cell, policy, run, duration));
        }
    }

    const SweepReport &report = sweep.report();
    if (!report.divergences.empty()) {
        std::printf("FAIL: %zu determinism divergence(s)\n",
                    report.divergences.size());
        ok = false;
    }
    // Sweep statistics go to stderr: the stdout table and the JSON
    // report must not depend on how the sweep was executed.
    std::fprintf(stderr, "arena: %zu points\n", report.total);

    if (!flags.getString("out").empty()) {
        JsonObject root;
        root["schema"] = JsonValue("powerchief-arena-v3");
        root["duration_s"] = JsonValue(duration.toSec());
        root["policies"] =
            JsonValue(static_cast<double>(policies.size()));
        root["points"] = JsonValue(std::move(points));
        std::ofstream out(flags.getString("out"), std::ios::binary);
        if (!out)
            fatal("arena: cannot open --out file '%s'",
                  flags.getString("out").c_str());
        out << JsonValue(std::move(root)).dump() << "\n";
    }

    if (!ok)
        return 1;
    std::printf("\narena OK: %zu policies x %zu cells\n",
                policies.size(), cells.size());
    return 0;
}
