/** @file Tests for the shared-resource interference model. */

#include <gtest/gtest.h>

#include "app/service_instance.h"
#include "exp/runner.h"
#include "hal/chip.h"
#include "test_query_slab.h"

namespace pc {
namespace {

TEST(Interference, FactorMath)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 6);
    chip.setInterference({0.05, 2});
    for (int i = 0; i < 5; ++i) {
        const auto id = chip.acquireCore(0);
        chip.core(*id).setBusy(true);
    }
    // Core 5 sees 5 busy others, 2 free -> 3 contending.
    EXPECT_DOUBLE_EQ(chip.interferenceFactor(5), 1.15);
    // A busy core does not contend with itself: core 0 sees 4 others.
    EXPECT_DOUBLE_EQ(chip.interferenceFactor(0), 1.10);
}

TEST(Interference, DisabledByDefault)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 4);
    for (int i = 0; i < 4; ++i) {
        const auto id = chip.acquireCore(0);
        chip.core(*id).setBusy(true);
    }
    EXPECT_DOUBLE_EQ(chip.interferenceFactor(0), 1.0);
}

TEST(Interference, BelowAllowanceIsFree)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 4);
    chip.setInterference({0.1, 2});
    const auto a = chip.acquireCore(0);
    chip.core(*a).setBusy(true);
    EXPECT_DOUBLE_EQ(chip.interferenceFactor(3), 1.0);
}

TEST(Interference, InflatesServiceTime)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 4);
    chip.setInterference({0.10, 0});

    // Two neighbour cores busy for a long time.
    for (int i = 0; i < 2; ++i) {
        const auto id = chip.acquireCore(0);
        chip.core(*id).setBusy(true);
    }
    const int core = *chip.acquireCore(0);
    double served = 0;
    ServiceInstance inst(1, "S_1", 0, &sim, &chip, core,
                         [&](QueryPtr q) {
                             served = q->hop(q->numHops() - 1).serving().toSec();
                         });
    inst.enqueue(testQuery(
        1, sim.now(), std::vector<WorkDemand>{{0.0, 1.0}}));
    sim.run();
    // 2 busy neighbours * 0.10 -> 1.2 s instead of 1.0 s.
    EXPECT_NEAR(served, 1.2, 1e-6);
}

TEST(Interference, EndToEndDegradationIsMonotonic)
{
    auto run = [](double alpha) {
        Scenario sc = Scenario::mitigation(WorkloadModel::sirius(),
                                           LoadLevel::Medium,
                                           PolicyKind::PowerChief, 5);
        sc.duration = SimTime::sec(200);
        sc.interference.alphaPerCore = alpha;
        sc.interference.freeCores = 1;
        return ExperimentRunner().run(sc).avgLatencySec;
    };
    const double clean = run(0.0);
    const double contended = run(0.08);
    EXPECT_GT(contended, clean);
}

} // namespace
} // namespace pc
