/**
 * @file
 * Ablation: bottleneck-metric choice (paper Table 1 vs Eq. 1).
 *
 * Runs PowerChief on Sirius under medium and high load with each
 * candidate latency metric driving bottleneck identification. The
 * paper's argument (§4.2): history-only metrics mis-identify the
 * bottleneck when load bursts queue up queries, so Eq. 1's
 * L×q̄+s̄ — history plus realtime queue — should win.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "common/csv.h"
#include "exp/report.h"
#include "exp/sweep.h"

using namespace pc;

namespace {

template <typename Metric>
Scenario
withMetric(const WorkloadModel &w, LoadLevel level, const char *name)
{
    Scenario sc = Scenario::mitigation(w, level, PolicyKind::PowerChief);
    sc.name = std::string(name);
    sc.metricFactory = [] { return std::make_unique<Metric>(); };
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("abl_metric", argc, argv));
    const WorkloadModel sirius = WorkloadModel::sirius();

    printBanner(std::cout, "Ablation: bottleneck metric",
                "PowerChief on Sirius with Table 1 metrics vs Eq. 1");

    const std::vector<LoadLevel> levels = {LoadLevel::Medium,
                                           LoadLevel::High};
    std::vector<Scenario> scenarios;
    for (LoadLevel level : levels) {
        scenarios.push_back(Scenario::mitigation(
            sirius, level, PolicyKind::StageAgnostic));
        scenarios.push_back(withMetric<PowerChiefMetric>(
            sirius, level, "Eq.1 L*q+s (PowerChief)"));
        scenarios.push_back(withMetric<AvgQueuingMetric>(
            sirius, level, "avg queuing (Table 1)"));
        scenarios.push_back(withMetric<AvgServingMetric>(
            sirius, level, "avg serving (Table 1)"));
        scenarios.push_back(withMetric<AvgProcessingMetric>(
            sirius, level, "avg processing (Table 1)"));
        scenarios.push_back(withMetric<TailProcessingMetric>(
            sirius, level, "p99 processing (Table 1)"));
    }
    const std::vector<RunResult> all = sweep.runAll(scenarios);
    const std::size_t perLevel = 6;

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
