/**
 * @file
 * The cluster budget tree, tested at every layer: the pluggable split
 * policies (unit), the arbiter's conservation protocol under lost /
 * duplicated / reordered traffic (unit, direct reports), and the full
 * fleet path end to end — bit-identical results at any worker count,
 * the cap never exceeded at any rebalance decision point, and the
 * partition-minority freeze. Mirrors tests/test_policy_invariants.cc
 * one level up the tree.
 */

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/arbiter.h"
#include "cluster/cluster_policy.h"
#include "exp/config_loader.h"
#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace pc {
namespace {

// --------------------------------------------------- policy plumbing

TEST(ClusterPolicyKind_, NamesRoundTripAndAliasesParse)
{
    for (const ClusterPolicyKind kind : allClusterPolicyKinds()) {
        ClusterPolicyKind parsed = ClusterPolicyKind::Count;
        EXPECT_TRUE(parseClusterPolicyKind(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    ClusterPolicyKind parsed = ClusterPolicyKind::Count;
    EXPECT_TRUE(parseClusterPolicyKind("proportional-demand", &parsed));
    EXPECT_EQ(parsed, ClusterPolicyKind::ProportionalDemand);
    EXPECT_FALSE(parseClusterPolicyKind("bogus", &parsed));
    EXPECT_EQ(makeClusterPolicy(ClusterPolicyKind::None), nullptr);
}

/**
 * The max-min water-filling split was deleted: its per-demand wanted
 * level sat above the equal share at every node, so it reproduced
 * equal-split. Its name (spelled in two pieces here so that a search
 * for it finds no live code) and its aliases must die at parse time,
 * with the offender and the valid names in the error.
 */
TEST(ClusterPolicyKind_, RemovedSplitNameDiesAtParse)
{
    const std::string removed = std::string("water") + "fill";
    EXPECT_EQ(clusterPolicyKindNames(), "none, equal-split, proportional");
    for (const std::string &name :
         {removed, std::string("water-filling"), std::string("fastcap")}) {
        ClusterPolicyKind parsed = ClusterPolicyKind::Count;
        EXPECT_FALSE(parseClusterPolicyKind(name, &parsed)) << name;
        EXPECT_EQ(parsed, ClusterPolicyKind::Count) << name;
    }
    const auto loaded = scenarioFromJsonText(
        "{\"workload\": \"sirius\", \"scenario\": {\"node_groups\": 2, "
        "\"cluster_policy\": \"" +
        removed + "\"}}");
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error.find("'" + removed + "'"), std::string::npos)
        << loaded.error;
    EXPECT_NE(loaded.error.find("none, equal-split, proportional"),
              std::string::npos)
        << loaded.error;
}

ClusterNodeView
view(int node, double assumed, double floor, double demand,
     bool frozen = false)
{
    ClusterNodeView v;
    v.node = node;
    v.assumedCapWatts = assumed;
    v.floorWatts = floor;
    v.demand = demand;
    v.frozen = frozen;
    return v;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s;
}

TEST(ClusterPolicies, EqualSplitDividesUnfrozenPoolEvenly)
{
    const auto policy = makeClusterPolicy(ClusterPolicyKind::EqualSplit);
    std::vector<ClusterNodeView> nodes = {
        view(0, 25.0, 6.25, 0.0),
        view(1, 25.0, 6.25, 9.0),
        view(2, 30.0, 6.25, 2.0, /*frozen=*/true),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_NEAR(targets[2], 30.0, 1e-9); // frozen: pinned at assumed
    EXPECT_NEAR(targets[0], 35.0, 1e-9); // (100 - 30) / 2
    EXPECT_NEAR(targets[1], 35.0, 1e-9);
    EXPECT_LE(sum(targets), 100.0 + 1e-9);
}

TEST(ClusterPolicies, ProportionalFollowsDemandAboveFloors)
{
    const auto policy =
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 3.0),
        view(1, 50.0, 10.0, 1.0),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    ASSERT_EQ(targets.size(), 2u);
    // Floors 10 + 10, surplus 80 split 3:1.
    EXPECT_NEAR(targets[0], 70.0, 1e-9);
    EXPECT_NEAR(targets[1], 30.0, 1e-9);
    EXPECT_LE(sum(targets), 100.0 + 1e-9);
}

TEST(ClusterPolicies, ProportionalFallsBackToEqualOnZeroDemand)
{
    const auto policy =
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 0.0),
        view(1, 50.0, 10.0, 0.0),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    EXPECT_NEAR(targets[0], 50.0, 1e-9);
    EXPECT_NEAR(targets[1], 50.0, 1e-9);
}

// ------------------------------------------------ arbiter unit tests

ClusterNodeReport
report(int node, std::uint64_t seq, double effective, double demand)
{
    ClusterNodeReport r;
    r.node = node;
    r.seq = seq;
    r.effectiveCapWatts = effective;
    r.targetCapWatts = effective;
    r.queueBacklog = demand;
    r.p99Sec = 0.0;
    return r;
}

ClusterArbiterConfig
arbiterConfig(double cap)
{
    ClusterArbiterConfig cfg;
    cfg.capWatts = cap;
    cfg.rebalanceInterval = SimTime::sec(1);
    return cfg;
}

TEST(ClusterArbiter_, StartsAtEqualSharesAndConservesThem)
{
    Simulator sim;
    ClusterArbiter arb(&sim, 4, arbiterConfig(100.0),
                       makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                       nullptr, nullptr);
    for (int n = 0; n < 4; ++n) {
        EXPECT_NEAR(arb.assumedCapWatts(n), 25.0, 1e-9);
        EXPECT_NEAR(arb.lastGrantWatts(n), 25.0, 1e-9);
        EXPECT_FALSE(arb.isFrozen(n));
    }
    EXPECT_NEAR(arb.assumedTotalWatts(), 100.0, 1e-9);
}

TEST(ClusterArbiter_, DuplicateAndReorderedReportsAreDropped)
{
    Simulator sim;
    ClusterArbiter arb(&sim, 2, arbiterConfig(100.0),
                       makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                       nullptr, nullptr);
    arb.onReport(report(0, 5, 50.0, 0.0));
    arb.onReport(report(0, 5, 50.0, 0.0)); // duplicate
    arb.onReport(report(0, 3, 50.0, 0.0)); // reordered-stale
    arb.onReport(report(0, 6, 50.0, 0.0)); // fresh
    EXPECT_EQ(arb.reportsSeen(), 4u);
    EXPECT_EQ(arb.reportsDropped(), 2u);
}

TEST(ClusterArbiter_, OverbudgetReportIsAConservationFatal)
{
    // A node claiming an effective cap above its assumed share means
    // the protocol broke somewhere; the arbiter must die loudly.
    EXPECT_EXIT(
        {
            Simulator sim;
            ClusterArbiter arb(
                &sim, 2, arbiterConfig(100.0),
                makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                nullptr, nullptr);
            arb.onReport(report(0, 1, 80.0, 0.0)); // assumed is 50
        },
        ::testing::ExitedWithCode(1), "conservation");
}

/**
 * The heart of the protocol: a *lost decrease* must never free watts.
 * Node 0 is granted a decrease but keeps reporting its old effective
 * cap (the grant vanished); the hot node 1 must not be raised until
 * node 0 confirms it actually came down.
 */
TEST(ClusterArbiter_, LostDecreaseKeepsWattsPinnedUntilConfirmed)
{
    Simulator sim;
    ClusterArbiter arb(
        &sim, 2, arbiterConfig(100.0),
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand),
        nullptr, nullptr);
    std::vector<ClusterGrant> grants;
    arb.setGrantSink(
        [&grants](const ClusterGrant &g) { grants.push_back(g); });
    arb.start();

    // Fresh reports just before every rebalance: node 0 idle and stuck
    // at 50 W effective (it never applies its decrease), node 1 hot.
    std::uint64_t seq = 0;
    for (int k = 0; k < 4; ++k) {
        sim.scheduleAt(SimTime::msec(900 + 1000 * k), [&arb, &seq]() {
            arb.onReport(report(0, ++seq, 50.0, /*demand=*/0.0));
            arb.onReport(report(1, ++seq, 50.0, /*demand=*/60.0));
        });
    }
    sim.runUntil(SimTime::msec(4500));

    // The decrease was proposed (floor = 0.25 * 50 = 12.5 W) but node
    // 0 never confirmed: its watts stay pinned, node 1 stays at 50.
    EXPECT_NEAR(arb.assumedCapWatts(0), 50.0, 1e-9);
    EXPECT_NEAR(arb.assumedCapWatts(1), 50.0, 1e-9);
    for (const ClusterGrant &g : grants) {
        if (g.node == 0)
            EXPECT_NEAR(g.targetCapWatts, 12.5, 1e-9);
        else
            ADD_FAILURE() << "node 1 must not be granted an increase "
                             "while node 0's decrease is unconfirmed "
                             "(got " << g.targetCapWatts << " W)";
    }
    ASSERT_FALSE(grants.empty());

    // Confirmation: node 0 reports the applied decrease; the freed
    // watts may now fund node 1 — and only now.
    grants.clear();
    sim.scheduleAt(SimTime::msec(4900), [&arb, &seq]() {
        arb.onReport(report(0, ++seq, 12.5, 0.0));
        arb.onReport(report(1, ++seq, 50.0, 60.0));
    });
    sim.runUntil(SimTime::msec(5500));
    EXPECT_NEAR(arb.assumedCapWatts(0), 12.5, 1e-9);
    EXPECT_NEAR(arb.assumedCapWatts(1), 87.5, 1e-9);
    bool raised = false;
    for (const ClusterGrant &g : grants)
        if (g.node == 1 && g.targetCapWatts > 50.0)
            raised = true;
    EXPECT_TRUE(raised);
    EXPECT_LE(arb.assumedTotalWatts(), 100.0 + 1e-9);
}

TEST(ClusterArbiter_, PartitionedMinorityFreezesAtItsShare)
{
    Simulator sim;
    ClusterArbiter arb(
        &sim, 3, arbiterConfig(90.0),
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand),
        nullptr, nullptr);
    std::vector<ClusterGrant> grants;
    arb.setGrantSink(
        [&grants](const ClusterGrant &g) { grants.push_back(g); });
    std::vector<ClusterDecision> decisions;
    arb.setDecisionProbe([&decisions](const ClusterDecision &d) {
        decisions.push_back(d);
    });
    arb.start();

    // Node 2 reports once, then the partition: silence forever. Nodes
    // 0 and 1 stay healthy and hungry.
    std::uint64_t seq = 0;
    sim.scheduleAt(SimTime::msec(900), [&arb, &seq]() {
        arb.onReport(report(2, ++seq, 30.0, 5.0));
    });
    for (int k = 0; k < 10; ++k) {
        sim.scheduleAt(SimTime::msec(900 + 1000 * k), [&arb, &seq]() {
            arb.onReport(report(0, ++seq, 30.0, 40.0));
            arb.onReport(report(1, ++seq, 30.0, 40.0));
        });
    }
    sim.runUntil(SimTime::sec(10));

    // freezeAfter defaults to 3x the interval: by t=10 s node 2 is
    // frozen at its last share, which was never exceeded.
    EXPECT_TRUE(arb.isFrozen(2));
    EXPECT_GE(arb.freezeEvents(), 1u);
    EXPECT_NEAR(arb.assumedCapWatts(2), 30.0, 1e-9);
    // Decrease proposals to node 2 before the freeze are fine (its
    // assumed share stays pinned until confirmed); what must never
    // happen is an *increase* granted to a silent node.
    for (const ClusterGrant &g : grants) {
        if (g.node == 2) {
            EXPECT_LE(g.targetCapWatts, 30.0 + 1e-9);
        }
    }
    // Every decision, before and after the freeze, conserves the cap,
    // and the frozen rounds pin node 2's target at its assumed share.
    ASSERT_FALSE(decisions.empty());
    for (const ClusterDecision &d : decisions) {
        EXPECT_LE(d.assumedTotalWatts, d.capWatts + 1e-9);
        for (const ClusterNodeDecision &nd : d.nodes) {
            if (nd.frozen) {
                EXPECT_NEAR(nd.targetWatts, nd.assumedBeforeWatts,
                            1e-9);
            }
        }
    }
    // The healthy majority never absorbs the frozen node's watts.
    EXPECT_LE(arb.assumedCapWatts(0) + arb.assumedCapWatts(1),
              90.0 - 30.0 + 1e-9);
}

// ----------------------------------------------- fleet end to end

/** Small but real fleet: 4 skewed groups under a 75 % cluster cap. */
Scenario
fleetScenario(ClusterPolicyKind policy, bool withFaults)
{
    Scenario sc = Scenario::fleet(policy, /*nodeGroups=*/4,
                                  /*capFraction=*/0.75,
                                  /*durationSec=*/10.0, /*seed=*/321);
    // A quarter of the factory's arrival rate keeps the test fast; the
    // per-group skew (groupLoadScale) is preserved on top of it.
    sc.load = sc.load.scaled(0.25);
    if (withFaults) {
        sc.faults.active = true;
        sc.faults.seed = 99;
        BusFaultRule lossy;
        lossy.endpoint = "*";
        lossy.dropRate = 0.05;
        lossy.duplicateRate = 0.02;
        lossy.reorderRate = 0.1;
        sc.faults.bus.push_back(lossy);
        sc.name += "/lossy";
    }
    return sc;
}

class ClusterDeterminism : public ::testing::TestWithParam<bool>
{
};

TEST_P(ClusterDeterminism, ResultBitIdenticalAtAnyWorkerCount)
{
    for (const ClusterPolicyKind policy :
         {ClusterPolicyKind::ProportionalDemand,
          ClusterPolicyKind::EqualSplit}) {
        const Scenario sc = fleetScenario(policy, GetParam());
        std::string reference;
        for (const int workers : {1, 2, 8}) {
            ExperimentRunner runner;
            runner.setShards(workers);
            const RunResult result = runner.run(sc);
            EXPECT_GT(result.completed, 0u);
            const std::string json = runResultToJson(result).dump();
            if (reference.empty())
                reference = json;
            else
                EXPECT_EQ(json, reference)
                    << toString(policy) << " diverged at " << workers
                    << " workers";
        }
    }
}

TEST_P(ClusterDeterminism, SweepPoolJobsDoNotChangeResults)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::EqualSplit, GetParam());
    std::string reference;
    for (const int jobs : {1, 3}) {
        for (const int shards : {1, 2}) {
            SweepOptions options;
            options.jobs = jobs;
            options.shards = shards;
            SweepRunner sweep(options);
            const RunResult result = sweep.runOne(sc);
            const std::string json = runResultToJson(result).dump();
            if (reference.empty())
                reference = json;
            else
                EXPECT_EQ(json, reference) << "diverged at jobs="
                                           << jobs << " shards="
                                           << shards;
        }
    }
}

TEST_P(ClusterDeterminism, CapNeverExceededAtAnyDecisionPoint)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::ProportionalDemand,
                      GetParam());
    std::size_t decisions = 0;
    ExperimentRunner runner;
    runner.setShards(2);
    runner.setClusterProbe([&decisions](const ClusterDecision &d) {
        ++decisions;
        EXPECT_LE(d.assumedTotalWatts, d.capWatts + 1e-6);
        double total = 0.0;
        for (const ClusterNodeDecision &nd : d.nodes) {
            EXPECT_GE(nd.targetWatts, 0.0);
            EXPECT_GE(nd.assumedAfterWatts, 0.0);
            total += nd.assumedAfterWatts;
            if (nd.frozen) {
                EXPECT_NEAR(nd.targetWatts, nd.assumedBeforeWatts,
                            1e-9);
            }
        }
        EXPECT_NEAR(total, d.assumedTotalWatts, 1e-6);
    });
    const RunResult result = runner.run(sc);
    EXPECT_GT(result.completed, 0u);
    EXPECT_GT(decisions, 0u);
}

TEST_P(ClusterDeterminism, EnvelopeCarriesClusterSummaryAndAudit)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::EqualSplit, GetParam());
    const std::string dir = ::testing::TempDir();
    const std::string tag = GetParam() ? "lossy" : "clean";
    TelemetryConfig telemetry;
    telemetry.timeseriesOut = dir + "/cluster_" + tag + ".ts.json";
    ExperimentRunner runner(/*recordTraces=*/false, SimTime::sec(5),
                            /*attribution=*/false,
                            /*collectAudit=*/true);
    runner.setShards(2);
    const RunResult result = runner.run(sc, &telemetry);
    EXPECT_TRUE(result.audit.collected);
    EXPECT_GT(result.audit.clusterRebalances, 0u);
    std::ifstream in(telemetry.timeseriesOut, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string ts = buf.str();
    EXPECT_NE(ts.find("\"cluster\":"), std::string::npos);
    EXPECT_NE(ts.find("\"policy\":\"equal-split\""), std::string::npos);
    EXPECT_NE(ts.find("\"cap_watts\":"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(CleanAndLossy, ClusterDeterminism,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "lossy" : "clean";
                         });

// -------------------------------------------- topology validation

TEST(TopologyValidation, RunnerRejectsBadTopologyWithOffenderNamed)
{
    Scenario bad = fleetScenario(ClusterPolicyKind::EqualSplit, false);
    bad.remoteFraction = 1.5;
    EXPECT_EXIT(
        { ExperimentRunner().run(bad); },
        ::testing::ExitedWithCode(1), "remote-fraction");

    Scenario negGroups =
        fleetScenario(ClusterPolicyKind::EqualSplit, false);
    negGroups.nodeGroups = -2;
    EXPECT_EXIT(
        { ExperimentRunner().run(negGroups); },
        ::testing::ExitedWithCode(1), "node-groups");

    Scenario zeroLat =
        fleetScenario(ClusterPolicyKind::EqualSplit, false);
    zeroLat.interNodeLatency = SimTime::zero();
    EXPECT_EXIT(
        { ExperimentRunner().run(zeroLat); },
        ::testing::ExitedWithCode(1), "inter-node-latency");

    Scenario badScale =
        fleetScenario(ClusterPolicyKind::EqualSplit, false);
    badScale.groupLoadScale = {1.0, -0.5, 1.0, 1.0};
    EXPECT_EXIT(
        { ExperimentRunner().run(badScale); },
        ::testing::ExitedWithCode(1), "group-load-scale");

    Scenario loneCluster =
        fleetScenario(ClusterPolicyKind::EqualSplit, false);
    loneCluster.nodeGroups = 1;
    loneCluster.groupLoadScale = {1.0};
    EXPECT_EXIT(
        { ExperimentRunner().run(loneCluster); },
        ::testing::ExitedWithCode(1), "cluster");
}

TEST(TopologyValidation, ConfigLoaderNamesTheOffendingField)
{
    const auto load = [](const std::string &scenarioBody) {
        const std::string text =
            "{\"workload\": \"sirius\", \"scenario\": {" +
            scenarioBody + "}}";
        return scenarioFromJsonText(text);
    };

    EXPECT_FALSE(load("\"node_groups\": -1").ok());
    EXPECT_NE(load("\"node_groups\": -1")
                  .error.find("node-groups"),
              std::string::npos);

    const auto badFraction =
        load("\"node_groups\": 2, \"remote_fraction\": 1.5");
    EXPECT_FALSE(badFraction.ok());
    EXPECT_NE(badFraction.error.find("remote-fraction"),
              std::string::npos);

    const auto badLatency =
        load("\"node_groups\": 2, \"inter_node_latency_ms\": 0");
    EXPECT_FALSE(badLatency.ok());
    EXPECT_NE(badLatency.error.find("inter-node-latency"),
              std::string::npos);

    const auto badPolicy =
        load("\"node_groups\": 2, \"cluster_policy\": \"bogus\"");
    EXPECT_FALSE(badPolicy.ok());
    EXPECT_NE(badPolicy.error.find("cluster_policy"),
              std::string::npos);

    const auto badScale = load(
        "\"node_groups\": 2, \"group_load_scale\": [1.0, 1.0, 1.0]");
    EXPECT_FALSE(badScale.ok());
    EXPECT_NE(badScale.error.find("group-load-scale"),
              std::string::npos);

    const auto good = load(
        "\"node_groups\": 2, \"cluster_policy\": \"equal-split\", "
        "\"rebalance_interval_sec\": 2, "
        "\"cluster_budget_watts\": 120, "
        "\"group_load_scale\": [1.2, 0.8]");
    ASSERT_TRUE(good.ok()) << good.error;
    EXPECT_EQ(good.scenario->clusterPolicy,
              ClusterPolicyKind::EqualSplit);
    EXPECT_EQ(good.scenario->nodeGroups, 2);
    EXPECT_NEAR(good.scenario->clusterBudget.value(), 120.0, 1e-9);
    ASSERT_EQ(good.scenario->groupLoadScale.size(), 2u);
}

} // namespace
} // namespace pc
