/**
 * @file
 * Fleet arena: the cluster power arbiter head-to-head with the static
 * equal split, at the same global cap.
 *
 * Every cell runs Scenario::fleet — N skewed node groups (hot / warm /
 * cool / cold arrival rates) under one fleet-wide power budget — once
 * per cluster policy: "none" is the static baseline (each node keeps a
 * fixed cap/N share forever), "equal-split" runs the arbiter but never
 * moves watts (arbiter-overhead control), and "proportional" is the
 * demand-driven split the cluster layer exists for. Cells come in a
 * clean and a lossy fabric variant (message drops, duplicates,
 * reordering on every bus — including the arbiter's own report/grant
 * traffic). On the clean fabric equal-split's grants are the static
 * cap/N by construction, so it ties "none" there, a tie that
 * tools/arena_report.py --distinct allows with that reason; the lossy
 * fabric tells the two apart.
 *
 * The table and --out JSON report (schema "powerchief-fleet-v1") are
 * pure functions of the RunResults in submission order — byte-identical
 * at any --jobs/--shards value. With --gate (default on) the binary
 * fails unless the demand-proportional arbiter strictly improves fleet
 * p99 AND SLO-violation-seconds over the static split in every cell:
 * the acceptance bar for the cluster layer, enforced in CI
 * (tools/check.sh). The default --load-scale
 * pushes the hot group past what a static cap/N share can serve while
 * leaving fleet-wide watts to spare — the regime a demand-driven
 * split exists for.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "faults/fault_plan.h"
#include "obs/slo.h"

using namespace pc;

namespace {

struct FaultVariant
{
    const char *name;
    FaultPlan plan;
};

std::vector<FaultVariant>
faultVariants()
{
    std::vector<FaultVariant> variants;

    // Armed injector that never acts: invariants stay enforced.
    FaultVariant clean{"clean", FaultPlan{}};
    clean.plan.active = true;
    clean.plan.seed = 17;
    variants.push_back(std::move(clean));

    // Every endpoint lossy — cluster reports and grants included.
    FaultVariant lossy{"lossy", FaultPlan{}};
    lossy.plan.active = true;
    lossy.plan.seed = 18;
    BusFaultRule bus;
    bus.endpoint = "*";
    bus.dropRate = 0.05;
    bus.duplicateRate = 0.02;
    bus.reorderRate = 0.1;
    bus.reorderJitterMax = SimTime::msec(5);
    lossy.plan.bus.push_back(bus);
    variants.push_back(std::move(lossy));
    return variants;
}

/** The arena's QoS yardstick: 3x the summed stage service means. */
double
qosTargetFor(const WorkloadModel &workload)
{
    double sum = 0.0;
    for (const auto &stage : workload.stages())
        sum += stage.meanServiceSec;
    return 3.0 * sum;
}

/** SLO accounting replayed from the run's recorded latency series. */
SloReport
sloOf(const RunResult &run, double targetSec, SimTime duration)
{
    SloConfig config;
    config.enabled = true;
    SloTracker tracker(config, targetSec);
    for (const auto &point : run.latencySeries.points())
        tracker.observe(point.t, point.value);
    tracker.finish(duration);
    return tracker.report();
}

JsonValue
pointToJson(const char *faults, ClusterPolicyKind policy,
            const RunResult &run, const SloReport &slo)
{
    JsonObject obj;
    obj["faults"] = JsonValue(std::string(faults));
    obj["cluster_policy"] = JsonValue(std::string(toString(policy)));
    obj["submitted"] = JsonValue(static_cast<double>(run.submitted));
    obj["completed"] = JsonValue(static_cast<double>(run.completed));
    obj["avg_s"] = JsonValue(run.avgLatencySec);
    obj["p99_s"] = JsonValue(run.p99LatencySec);
    obj["max_s"] = JsonValue(run.maxLatencySec);
    obj["avg_power_w"] = JsonValue(run.avgPowerWatts);
    obj["energy_j"] = JsonValue(run.energyJoules);
    obj["slo_target_s"] = JsonValue(slo.targetSec);
    obj["slo_violation_rate"] = JsonValue(slo.violationRate());
    obj["slo_violation_s"] = JsonValue(slo.violationSeconds);
    obj["cluster_rebalances"] =
        JsonValue(static_cast<double>(run.audit.clusterRebalances));
    return JsonValue(std::move(obj));
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("fleet");
    addSweepFlags(&flags);
    flags.addInt("groups", 4, "node groups in the fleet (>= 2)");
    flags.addDouble("cap-fraction", 0.75,
                    "fleet cap as a fraction of groups x 75 W");
    flags.addDouble("duration-sec", 120.0,
                    "run length of each fleet point (seconds)");
    flags.addInt("seed", 42, "scenario seed");
    flags.addDouble("load-scale", 5.5,
                    "multiplier on the fleet's base arrival rate; the "
                    "default pushes the hot group into the power-"
                    "starved regime the arbiter exists for");
    flags.addBool("gate", true,
                  "fail unless the demand-proportional arbiter "
                  "strictly beats the static split on p99 and SLO-"
                  "violation seconds in every cell");
    flags.addString("out", "",
                    "write the JSON report (schema "
                    "powerchief-fleet-v1) to this path");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << flags.error() << "\n";
        flags.printUsage(flags.helpRequested() ? std::cout : std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    const int groups = static_cast<int>(flags.getInt("groups"));
    if (groups < 2)
        fatal("fleet: --groups must be >= 2 (got %d)", groups);
    const double capFraction = flags.getDouble("cap-fraction");
    const SimTime duration =
        SimTime::sec(flags.getDouble("duration-sec"));
    const auto seed =
        static_cast<std::uint64_t>(flags.getInt("seed"));

    // "none" is the static baseline: the same global cap, pre-split
    // cap/N per node, no arbiter. The rest run the budget tree.
    const std::vector<ClusterPolicyKind> policies = {
        ClusterPolicyKind::None,
        ClusterPolicyKind::EqualSplit,
        ClusterPolicyKind::ProportionalDemand,
    };
    const std::vector<FaultVariant> variants = faultVariants();

    std::vector<Scenario> scenarios;
    for (const auto &fv : variants) {
        for (const ClusterPolicyKind policy : policies) {
            Scenario sc = Scenario::fleet(policy, groups, capFraction,
                                          duration.toSec(), seed);
            if (policy == ClusterPolicyKind::None) {
                // The static baseline must run under the SAME global
                // cap: without an arbiter the cluster budget is
                // ignored, so pre-split it into fixed per-node shares.
                sc.powerBudget =
                    Watts(sc.clusterBudget.value() /
                          static_cast<double>(groups));
            }
            sc.faults = fv.plan;
            sc.load = sc.load.scaled(flags.getDouble("load-scale"));
            // Keep the cross-node spray as a fabric exercise, but
            // small enough that the fleet p99 (and the per-node p99
            // demand signal) reflects compute queueing, not the fixed
            // inter-node RTT the arbiter cannot shorten.
            sc.remoteFraction = 0.02;
            sc.name += std::string("/") + fv.name;
            scenarios.push_back(std::move(sc));
        }
    }
    const double qosTargetSec =
        qosTargetFor(scenarios.front().workload);

    SweepOptions options = sweepOptionsFromFlags(flags);
    options.recordTraces = true;
    options.collectAudit = true;
    SweepRunner sweep(options);

    printBanner(std::cout, "Fleet arena",
                "cluster power arbiter vs the static equal split, "
                "same global cap");
    const std::vector<RunResult> runs = sweep.runAll(scenarios);

    const bool gate = flags.getBool("gate");
    bool ok = true;
    JsonArray points;
    std::size_t runIdx = 0;
    for (const auto &fv : variants) {
        std::printf("\n%d groups @ %.0f%% cap, %s fabric "
                    "(SLO %.3f s)\n",
                    groups, capFraction * 100.0, fv.name,
                    qosTargetSec);
        std::printf("  %-14s %9s %9s %9s %9s %10s %8s\n", "cluster",
                    "completed", "avg s", "p99 s", "viol s",
                    "viol rate", "watts");
        double staticP99 = 0.0;
        double staticViolSec = 0.0;
        for (const ClusterPolicyKind policy : policies) {
            const RunResult &run = runs[runIdx++];
            const SloReport slo = sloOf(run, qosTargetSec, duration);
            std::printf("  %-14s %9llu %9.4f %9.4f %9.1f %9.2f%% "
                        "%8.2f\n",
                        toString(policy),
                        static_cast<unsigned long long>(run.completed),
                        run.avgLatencySec, run.p99LatencySec,
                        slo.violationSeconds,
                        100.0 * slo.violationRate(),
                        run.avgPowerWatts);
            if (run.completed == 0) {
                std::printf("  FAIL: %s completed no queries\n",
                            toString(policy));
                ok = false;
            }
            if (policy == ClusterPolicyKind::None) {
                staticP99 = run.p99LatencySec;
                staticViolSec = slo.violationSeconds;
            } else if (gate &&
                       policy ==
                           ClusterPolicyKind::ProportionalDemand) {
                // The acceptance bar: the arbiter's demand-driven
                // split must strictly beat the static baseline on
                // both axes. (Equal-split is reported, not gated: it
                // is the arbiter-overhead control, not a rival.)
                if (run.p99LatencySec >= staticP99) {
                    std::printf("  FAIL: %s p99 %.4f s does not beat "
                                "the static split's %.4f s\n",
                                toString(policy), run.p99LatencySec,
                                staticP99);
                    ok = false;
                }
                if (slo.violationSeconds >= staticViolSec) {
                    std::printf("  FAIL: %s violation-seconds %.1f "
                                "does not beat the static split's "
                                "%.1f\n",
                                toString(policy),
                                slo.violationSeconds, staticViolSec);
                    ok = false;
                }
            }
            points.push_back(
                pointToJson(fv.name, policy, run, slo));
        }
    }

    const SweepReport &report = sweep.report();
    if (!report.divergences.empty()) {
        std::printf("FAIL: %zu determinism divergence(s)\n",
                    report.divergences.size());
        ok = false;
    }
    std::fprintf(stderr, "fleet: %zu points\n", report.total);

    if (!flags.getString("out").empty()) {
        JsonObject root;
        root["schema"] = JsonValue("powerchief-fleet-v1");
        root["groups"] = JsonValue(static_cast<double>(groups));
        root["cap_fraction"] = JsonValue(capFraction);
        root["duration_s"] = JsonValue(duration.toSec());
        root["points"] = JsonValue(std::move(points));
        std::ofstream out(flags.getString("out"), std::ios::binary);
        if (!out)
            fatal("fleet: cannot open --out file '%s'",
                  flags.getString("out").c_str());
        out << JsonValue(std::move(root)).dump() << "\n";
    }

    if (!ok)
        return 1;
    std::printf("\nfleet OK: %zu cluster policies x %zu fabrics\n",
                policies.size(), variants.size());
    return 0;
}
