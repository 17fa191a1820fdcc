/**
 * @file
 * powerchief-cli — run any scenario from the command line.
 *
 *   powerchief-cli --workload=sirius --policy=powerchief --load=high \
 *                  --duration=900 --seed=42 --artifacts=results/
 *
 * Workloads: sirius, sirius-mixed, nlp, websearch.
 * Policies: every canonical PolicyKind name (see policyKindNames());
 * unknown names are rejected at flag-parse time with the valid list.
 * QoS policies (pegasus/powerchief-conserve) switch to the Table 3
 * over-provisioned layout and require --qos (seconds); fixed-stage
 * takes the target stage from --fixed-stage.
 *
 * --seeds=1,2,3 sweeps the scenario over a seed list; the runs execute
 * concurrently through the sweep engine (--jobs/--audit, see
 * exp/sweep.h).
 *
 * Observability (see docs/OBSERVABILITY.md): --trace-out=FILE exports a
 * Chrome/Perfetto trace of every query hop and control decision;
 * --metrics-out=FILE dumps the run's metrics registry as JSON (or CSV
 * by extension), snapshotted every --metrics-interval seconds;
 * --audit-out=FILE dumps the decision-audit log (every boost/recycle/
 * withdraw decision with its model inputs and prediction score);
 * --attribution prints the per-stage queue/serve decomposition of the
 * p95/p99 tail; --timeseries-out=FILE dumps per-control-interval series
 * of every metric plus the controller-health taps (delta-encoded JSON,
 * or OpenMetrics text via --metrics-format=openmetrics); --alerts runs
 * the online anomaly detectors (obs.alert audit records); --slo tracks
 * latency-SLO burn rates (--slo-target/--slo-objective/--slo-*-window)
 * and prints the burn table. In seed sweeps each run writes its own
 * "<file>.<scenario>.<ext>".
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/flags.h"
#include "common/logging.h"
#include "exp/artifacts.h"
#include "exp/config_loader.h"
#include "exp/report.h"
#include "exp/sweep.h"

using namespace pc;

namespace {

bool
pickWorkload(const std::string &name, WorkloadModel *out)
{
    if (name == "sirius")
        *out = WorkloadModel::sirius();
    else if (name == "sirius-mixed")
        *out = WorkloadModel::siriusMixed();
    else if (name == "nlp")
        *out = WorkloadModel::nlp();
    else if (name == "websearch")
        *out = WorkloadModel::webSearch();
    else if (name == "microservice")
        *out = WorkloadModel::microservice();
    else
        return false;
    return true;
}

bool
pickLevel(const std::string &name, LoadLevel *out)
{
    if (name == "low")
        *out = LoadLevel::Low;
    else if (name == "medium")
        *out = LoadLevel::Medium;
    else if (name == "high")
        *out = LoadLevel::High;
    else
        return false;
    return true;
}

/** Parse "1,2,3" into seeds; returns false on malformed input. */
bool
parseSeedList(const std::string &text, std::vector<int> *out)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string token = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (token.empty())
            return false;
        char *end = nullptr;
        const long v = std::strtol(token.c_str(), &end, 10);
        if (end == nullptr || *end != '\0')
            return false;
        out->push_back(static_cast<int>(v));
        pos = comma == std::string::npos ? text.size() : comma + 1;
    }
    return !out->empty();
}

/**
 * Run the scenario (expanded over the seed list when --seeds is given)
 * through the sweep engine and print/persist every result.
 */
int
runScenarios(const FlagSet &flags, const Scenario &base,
             const std::vector<int> &seeds)
{
    std::vector<Scenario> scenarios;
    if (seeds.empty()) {
        scenarios.push_back(base);
    } else {
        for (int seed : seeds) {
            Scenario sc = base;
            sc.seed = static_cast<std::uint64_t>(seed);
            sc.name = base.name + "/seed" + std::to_string(seed);
            scenarios.push_back(std::move(sc));
        }
    }

    // Sharded-fleet topology knobs (see docs/PERFORMANCE.md). The
    // node-group count is part of the scenario; --shards, in
    // addSweepFlags, only picks the worker-thread count.
    const long nodeGroupsFlag = flags.getInt("node-groups");
    if (nodeGroupsFlag < 0)
        fatal("--node-groups must be >= 0 (got %ld)", nodeGroupsFlag);
    if (nodeGroupsFlag > 0) {
        for (Scenario &sc : scenarios) {
            sc.nodeGroups = static_cast<int>(nodeGroupsFlag);
            sc.remoteFraction = flags.getDouble("remote-fraction");
            sc.interNodeLatency =
                SimTime::msec(flags.getDouble("inter-node-latency"));
        }
    }

    // Cluster budget-tree knobs (see docs/ARCHITECTURE.md). Applied
    // only when set so a --config file's cluster section survives.
    if (flags.isSet("cluster-policy")) {
        ClusterPolicyKind kind = ClusterPolicyKind::None;
        if (!parseClusterPolicyKind(flags.getString("cluster-policy"),
                                    &kind))
            fatal("unknown --cluster-policy '%s' (valid: %s)",
                  flags.getString("cluster-policy").c_str(),
                  clusterPolicyKindNames().c_str());
        for (Scenario &sc : scenarios)
            sc.clusterPolicy = kind;
    }
    if (flags.isSet("rebalance-interval")) {
        for (Scenario &sc : scenarios)
            sc.rebalanceInterval =
                SimTime::sec(flags.getDouble("rebalance-interval"));
    }
    if (flags.isSet("cluster-budget")) {
        for (Scenario &sc : scenarios)
            sc.clusterBudget = Watts(flags.getDouble("cluster-budget"));
    }

    // Topology validation at parse time, with the offender named —
    // bad values must die here, not in the arrival-rate arithmetic.
    for (const Scenario &sc : scenarios) {
        if (const std::string err = scenarioTopologyError(sc);
            !err.empty())
            fatal("scenario '%s': %s", sc.name.c_str(), err.c_str());
    }

    // --faults wins over a "faults" section in --config.
    if (!flags.getString("faults").empty()) {
        std::string error;
        auto plan = faultPlanFromFile(flags.getString("faults"), &error);
        if (!plan) {
            std::cerr << "fault plan error: " << error << "\n";
            return 2;
        }
        for (Scenario &sc : scenarios)
            sc.faults = *plan;
    }

    SweepOptions options = sweepOptionsFromFlags(flags);
    options.recordTraces = flags.getBool("traces") ||
        !flags.getString("artifacts").empty();
    SweepRunner sweep(options);
    const std::vector<RunResult> results = sweep.runAll(scenarios);

    printRawResults(std::cout, results);
    printTailAttribution(std::cout, results);
    printSloReports(std::cout, results);
    if (!flags.getString("artifacts").empty()) {
        ArtifactWriter writer(flags.getString("artifacts"));
        for (const RunResult &result : results)
            std::printf("artifacts written to %s\n",
                        writer.writeRun(result).c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("powerchief-cli");
    flags.addString("workload", "sirius",
                    "sirius | sirius-mixed | nlp | websearch | "
                    "microservice");
    flags.addString("policy", "powerchief",
                    "control policy (one of: " + policyKindNames() +
                    ")");
    flags.addInt("fixed-stage", 0,
                 "target stage for --policy=fixed-stage");
    flags.addString("load", "high", "low | medium | high");
    flags.addDouble("qps", 0.0,
                    "explicit arrival rate (overrides --load)");
    flags.addDouble("budget", 13.56, "power budget in watts");
    flags.addDouble("qos", 0.0,
                    "QoS latency target in seconds (pegasus/conserve)");
    flags.addDouble("duration", 900.0, "simulated seconds");
    flags.addInt("seed", 42, "random seed");
    flags.addString("artifacts", "",
                    "directory for CSV artifacts (empty = none)");
    flags.addBool("traces", false, "record time-series traces");
    flags.addString("config", "",
                    "JSON config file describing workload+scenario "
                    "(overrides workload/policy/load flags)");
    flags.addString("seeds", "",
                    "comma-separated seed list: sweep the scenario "
                    "over these seeds (overrides --seed)");
    flags.addString("faults", "",
                    "JSON fault-injection plan applied to the run "
                    "(see docs/ROBUSTNESS.md)");
    flags.addInt("node-groups", 0,
                 "run N replicated node groups on the sharded engine "
                 "(0 = single-node scenario; see docs/PERFORMANCE.md)");
    flags.addDouble("remote-fraction", 0.1,
                    "fraction of each group's arrivals sprayed to a "
                    "remote group (needs --node-groups > 1)");
    flags.addDouble("inter-node-latency", 10.0,
                    "cross-group network latency in milliseconds (the "
                    "sharded engine's conservative lookahead)");
    flags.addString("cluster-policy", "none",
                    "fleet power-arbiter split policy (one of: " +
                    clusterPolicyKindNames() +
                    "; needs --node-groups > 1)");
    flags.addDouble("rebalance-interval", 5.0,
                    "cluster arbiter rebalance period in seconds");
    flags.addDouble("cluster-budget", 0.0,
                    "fleet-wide power cap in watts "
                    "(0 = node-groups x --budget)");
    addSweepFlags(&flags);

    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << "error: " << flags.error() << "\n\n";
        flags.printUsage(std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    std::vector<int> seeds;
    if (!flags.getString("seeds").empty() &&
        !parseSeedList(flags.getString("seeds"), &seeds)) {
        std::cerr << "malformed --seeds list '"
                  << flags.getString("seeds") << "'\n";
        return 2;
    }

    Scenario base;
    if (!flags.getString("config").empty()) {
        const ConfigLoadResult loaded =
            scenarioFromFile(flags.getString("config"));
        if (!loaded.ok()) {
            std::cerr << "config error: " << loaded.error << "\n";
            return 2;
        }
        base = *loaded.scenario;
        if (flags.isSet("duration"))
            base.duration = SimTime::sec(flags.getDouble("duration"));
        return runScenarios(flags, base, seeds);
    }

    WorkloadModel workload = WorkloadModel::sirius();
    LoadLevel level = LoadLevel::High;
    PolicyKind policy = PolicyKind::PowerChief;
    if (!pickWorkload(flags.getString("workload"), &workload)) {
        std::cerr << "unknown workload '" << flags.getString("workload")
                  << "'\n";
        return 2;
    }
    if (!pickLevel(flags.getString("load"), &level)) {
        std::cerr << "unknown load level '" << flags.getString("load")
                  << "'\n";
        return 2;
    }
    if (!parsePolicyKind(flags.getString("policy"), &policy)) {
        std::cerr << "unknown policy '" << flags.getString("policy")
                  << "' (valid: " << policyKindNames() << ")\n";
        return 2;
    }

    Scenario sc;
    const bool qosMode = policy == PolicyKind::Pegasus ||
        policy == PolicyKind::PowerChiefConserve;
    if (qosMode) {
        const double qos = flags.getDouble("qos");
        if (qos <= 0.0) {
            std::cerr << "--qos is required for QoS policies\n";
            return 2;
        }
        std::vector<int> counts(
            static_cast<std::size_t>(workload.numStages()), 4);
        sc = Scenario::conservation(workload, counts, qos,
                                    SimTime::sec(10), policy,
                                    flags.getInt("seed"));
    } else {
        sc = Scenario::mitigation(workload, level, policy,
                                  flags.getInt("seed"));
        sc.powerBudget = Watts(flags.getDouble("budget"));
        if (policy == PolicyKind::FixedStage)
            sc.fixedStage = flags.getInt("fixed-stage");
    }
    if (flags.getDouble("qps") > 0.0)
        sc.load = LoadProfile::constant(flags.getDouble("qps"));
    sc.duration = SimTime::sec(flags.getDouble("duration"));

    return runScenarios(flags, sc, seeds);
}
