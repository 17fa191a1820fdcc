/**
 * @file
 * Figure 10 reproduction: latency improvement for the Sirius application
 * using PowerChief compared to frequency-only and instance-only boosting
 * under low / medium / high load, all under the same 13.56 W budget.
 *
 * Also derives the §8.2 headline numbers: the cross-load mean average-
 * latency and tail-latency improvement of PowerChief over the
 * stage-agnostic baseline (paper: 20.3x avg, 13.3x p99).
 *
 * All 12 runs execute concurrently through the sweep engine
 * (--jobs/--audit, see exp/sweep.h).
 */

#include <iostream>
#include <vector>

#include "exp/report.h"
#include "exp/sweep.h"

using namespace pc;

int
main(int argc, char **argv)
{
    SweepRunner sweep(
        parseSweepArgs("fig10_sirius_latency", argc, argv));
    const WorkloadModel sirius = WorkloadModel::sirius();

    printBanner(std::cout, "Figure 10",
                "Sirius latency improvement under the 13.56 W budget "
                "(improvement over stage-agnostic baseline)");

    const std::vector<LoadLevel> levels = {
        LoadLevel::Low, LoadLevel::Medium, LoadLevel::High};
    const std::vector<PolicyKind> policies = {
        PolicyKind::FreqBoost, PolicyKind::InstBoost,
        PolicyKind::PowerChief};

    // One flat sweep: per level a baseline plus the three policies.
    std::vector<Scenario> scenarios;
    for (LoadLevel level : levels) {
        scenarios.push_back(Scenario::mitigation(
            sirius, level, PolicyKind::StageAgnostic));
        for (PolicyKind policy : policies)
            scenarios.push_back(
                Scenario::mitigation(sirius, level, policy));
    }
    const std::vector<RunResult> all = sweep.runAll(scenarios);
    const std::size_t perLevel = 1 + policies.size();

    double pcAvgProduct = 0.0;
    double pcTailProduct = 0.0;
    int pcRuns = 0;

    for (std::size_t l = 0; l < levels.size(); ++l) {
        const RunResult &baseline = all[l * perLevel];
        const std::vector<RunResult> runs(
            all.begin() + static_cast<std::ptrdiff_t>(l * perLevel + 1),
            all.begin() +
                static_cast<std::ptrdiff_t>((l + 1) * perLevel));

        std::cout << "\n(" << toString(levels[l]) << " load, "
                  << baseline.completed << " baseline completions, "
                  << "baseline avg " << baseline.avgLatencySec
                  << " s / p99 " << baseline.p99LatencySec << " s)\n";
        printImprovementTable(std::cout, baseline, runs);

        const auto &pc = runs.back();
        pcAvgProduct +=
            RunResult::improvement(baseline.avgLatencySec,
                                   pc.avgLatencySec);
        pcTailProduct +=
            RunResult::improvement(baseline.p99LatencySec,
                                   pc.p99LatencySec);
        ++pcRuns;
    }

    std::cout << "\nHeadline (paper 8.2: 20.3x avg, 13.3x p99 for "
                 "Sirius):\n"
              << "  PowerChief mean improvement across loads: "
              << pcAvgProduct / pcRuns << "x avg, "
              << pcTailProduct / pcRuns << "x p99\n";
    printTailAttribution(std::cout, all);
    return 0;
}
