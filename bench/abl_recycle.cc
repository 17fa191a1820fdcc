/**
 * @file
 * Ablation: power-recycling order (paper §6.1).
 *
 * The paper recycles from the fastest (lowest latency metric) instance
 * first and notes other orders can be plugged in. This bench compares
 * fastest-first against slowest-first (adversarial: drains instances
 * that are themselves near-bottleneck) and a proportional round-robin
 * spread, under medium and high Sirius load.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "exp/report.h"
#include "exp/sweep.h"

using namespace pc;

namespace {

template <typename Order>
Scenario
withOrder(const WorkloadModel &w, LoadLevel level, const char *name)
{
    Scenario sc = Scenario::mitigation(w, level, PolicyKind::PowerChief);
    sc.name = std::string(name);
    sc.recycleFactory = [] { return std::make_unique<Order>(); };
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("abl_recycle", argc, argv));
    const WorkloadModel sirius = WorkloadModel::sirius();

    printBanner(std::cout, "Ablation: recycle order",
                "PowerChief on Sirius with different power-recycling "
                "orders");

    const std::vector<LoadLevel> levels = {LoadLevel::Medium,
                                           LoadLevel::High};
    std::vector<Scenario> scenarios;
    for (LoadLevel level : levels) {
        scenarios.push_back(Scenario::mitigation(
            sirius, level, PolicyKind::StageAgnostic));
        scenarios.push_back(withOrder<FastestFirstOrder>(
            sirius, level, "fastest-first (paper)"));
        scenarios.push_back(withOrder<SlowestFirstOrder>(
            sirius, level, "slowest-first"));
        scenarios.push_back(withOrder<ProportionalOrder>(
            sirius, level, "proportional"));
    }
    const std::vector<RunResult> all = sweep.runAll(scenarios);
    const std::size_t perLevel = 4;

    for (std::size_t l = 0; l < levels.size(); ++l) {
        const RunResult &baseline = all[l * perLevel];
        const std::vector<RunResult> runs(
            all.begin() + static_cast<std::ptrdiff_t>(l * perLevel + 1),
            all.begin() +
                static_cast<std::ptrdiff_t>((l + 1) * perLevel));

        std::cout << "\n(" << toString(levels[l]) << " load)\n";
        printImprovementTable(std::cout, baseline, runs);
    }
    printTailAttribution(std::cout, all);
    return 0;
}
