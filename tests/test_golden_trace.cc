/**
 * @file
 * Golden-trace regression: the Fig. 11 runtime trace for a fixed seed,
 * serialized through runResultToJson, must replay
 * byte-for-byte against its pinned file in tests/golden/ — for
 * PowerChief and for the FastCap/CuttleSys rival policies.
 *
 * Any change to the simulator's event ordering, the RNG streams, the
 * control loop, or the JSON codec shows up here as a byte diff.
 * To regenerate after an *intentional* behaviour change:
 *
 *   PC_UPDATE_GOLDEN=1 ./tests/test_golden_trace
 *
 * and commit the rewritten golden files with the change that caused it.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/result_cache.h"
#include "exp/runner.h"

namespace pc {
namespace {

struct GoldenCase
{
    PolicyKind policy;
    /** File name under tests/golden/. */
    const char *file;
};

// PowerChief keeps its historical file name; the rivals pin
// <policy>_fig11_trace.json, the names trace-diff --fresh-golden and
// the ctest tolerance gates use.
const GoldenCase kGoldenCases[] = {
    {PolicyKind::PowerChief, "fig11_trace.json"},
    {PolicyKind::FastCap, "fastcap_fig11_trace.json"},
    {PolicyKind::CuttleSys, "cuttlesys_fig11_trace.json"},
};

std::string
goldenPath(const char *file)
{
    return std::string(PC_SOURCE_DIR) + "/golden/" + file;
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, Fig11ReplaysByteStable)
{
    const GoldenCase &gc = GetParam();
    // The pinned scenarios live in Scenario::goldenFig11For() so the
    // trace-diff tolerance gates replay the identical runs.
    const ExperimentRunner runner(/*recordTraces=*/true);
    const RunResult run = runner.run(Scenario::goldenFig11For(gc.policy));
    EXPECT_GT(run.completed, 0u);
    EXPECT_FALSE(run.latencySeries.points().empty());
    const std::string fresh = runResultToJson(run).dump() + "\n";

    if (std::getenv("PC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(gc.file), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(gc.file);
        out << fresh;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(goldenPath(gc.file), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath(gc.file)
        << " — run with PC_UPDATE_GOLDEN=1 to create it";
    std::ostringstream stored;
    stored << in.rdbuf();

    // Byte equality, not structural equality: the golden file also
    // pins the serialization format.
    EXPECT_EQ(stored.str(), fresh)
        << "Fig. 11 trace diverged from tests/golden/" << gc.file
        << ". If the behaviour change is intentional, regenerate with "
           "PC_UPDATE_GOLDEN=1.";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GoldenTrace, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        switch (info.param.policy) {
          case PolicyKind::PowerChief: return std::string("PowerChief");
          case PolicyKind::FastCap: return std::string("FastCap");
          case PolicyKind::CuttleSys: return std::string("CuttleSys");
          default: return std::string("Unknown");
        }
    });

} // namespace
} // namespace pc
