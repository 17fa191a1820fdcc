/** @file Unit tests for workload profiles and load generation. */

#include <gtest/gtest.h>

#include "workloads/loadgen.h"
#include "workloads/profiles.h"

namespace pc {
namespace {

// ----------------------------------------------------------- profiles

TEST(StageProfile, ExpectedServiceTimeAtProfiledPoint)
{
    StageProfile p{"X", 1.0, 0.3, 0.8, 1800};
    EXPECT_DOUBLE_EQ(p.expectedServiceSecAt(1800), 1.0);
}

TEST(StageProfile, ExpectedServiceScalesComputePart)
{
    StageProfile p{"X", 1.0, 0.3, 0.8, 1800};
    // mem 0.2 + cpu 0.8 * 1800/2400.
    EXPECT_DOUBLE_EQ(p.expectedServiceSecAt(2400), 0.2 + 0.6);
    EXPECT_DOUBLE_EQ(p.expectedServiceSecAt(1200), 0.2 + 1.2);
}

TEST(StageProfile, SampleMeanMatchesProfile)
{
    StageProfile p{"X", 0.5, 0.4, 0.7, 1800};
    Rng rng(17);
    double sum = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        sum += p.sample(rng, 1200).serviceSec(1800, 1200);
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(StageProfile, SampleSplitsComputeFraction)
{
    StageProfile p{"X", 1.0, 0.3, 0.75, 1800};
    Rng rng(19);
    const WorkDemand d = p.sample(rng, 1200);
    const double total = d.serviceSec(1800, 1200);
    EXPECT_NEAR(d.memSec / total, 0.25, 1e-9);
}

TEST(WorkloadModel, SiriusShape)
{
    const auto sirius = WorkloadModel::sirius();
    EXPECT_EQ(sirius.name(), "sirius");
    ASSERT_EQ(sirius.numStages(), 3);
    EXPECT_EQ(sirius.stage(0).name, "ASR");
    EXPECT_EQ(sirius.stage(1).name, "IMM");
    EXPECT_EQ(sirius.stage(2).name, "QA");
    // QA dominates (paper: the bottleneck stage).
    EXPECT_GT(sirius.stage(2).meanServiceSec,
              sirius.stage(0).meanServiceSec);
    EXPECT_GT(sirius.stage(2).meanServiceSec,
              sirius.stage(1).meanServiceSec);
}

TEST(WorkloadModel, NlpShape)
{
    const auto nlp = WorkloadModel::nlp();
    ASSERT_EQ(nlp.numStages(), 3);
    EXPECT_EQ(nlp.stage(0).name, "POS");
    EXPECT_EQ(nlp.stage(2).name, "SRL");
    EXPECT_GT(nlp.stage(2).meanServiceSec, nlp.stage(1).meanServiceSec);
}

TEST(WorkloadModel, WebSearchShape)
{
    const auto ws = WorkloadModel::webSearch();
    ASSERT_EQ(ws.numStages(), 2);
    EXPECT_EQ(ws.stage(0).name, "LEAF");
    EXPECT_EQ(ws.stage(1).name, "AGG");
}

TEST(WorkloadModel, BottleneckCapacityIsSlowestStage)
{
    const auto sirius = WorkloadModel::sirius();
    const double qa = sirius.stage(2).expectedServiceSecAt(1800);
    EXPECT_NEAR(sirius.bottleneckCapacityAt(1800), 1.0 / qa, 1e-9);
}

TEST(WorkloadModel, SampleDemandsOnePerStage)
{
    const auto sirius = WorkloadModel::sirius();
    Rng rng(3);
    const auto demands = sirius.sampleDemands(rng, 1200);
    EXPECT_EQ(demands.size(), 3u);
    for (const auto &d : demands)
        EXPECT_GT(d.serviceSec(1800, 1200), 0.0);
}

TEST(WorkloadModel, UniformLayout)
{
    const auto sirius = WorkloadModel::sirius();
    const auto specs = sirius.layout(2, 6);
    ASSERT_EQ(specs.size(), 3u);
    for (const auto &s : specs) {
        EXPECT_EQ(s.initialInstances, 2);
        EXPECT_EQ(s.initialLevel, 6);
    }
    EXPECT_EQ(specs[2].name, "QA");
}

TEST(WorkloadModel, ExplicitLayoutCounts)
{
    const auto ws = WorkloadModel::webSearch();
    const auto specs = ws.layout({10, 1}, 12);
    EXPECT_EQ(specs[0].initialInstances, 10);
    EXPECT_EQ(specs[1].initialInstances, 1);
}

TEST(WorkloadModelDeath, LayoutCountMismatchIsFatal)
{
    const auto sirius = WorkloadModel::sirius();
    EXPECT_EXIT(sirius.layout({1, 2}, 0), testing::ExitedWithCode(1),
                "do not match");
}

// ---------------------------------------------------------- LoadProfile

TEST(LoadProfile, ConstantRate)
{
    const auto p = LoadProfile::constant(2.5);
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::zero()), 2.5);
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::sec(1e6)), 2.5);
    EXPECT_DOUBLE_EQ(p.maxRate(), 2.5);
}

TEST(LoadProfile, PiecewiseInterpolation)
{
    const auto p = LoadProfile::piecewise({
        {SimTime::sec(10), 1.0},
        {SimTime::sec(20), 3.0},
    });
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::sec(0)), 1.0);  // clamp left
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::sec(15)), 2.0); // midpoint
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::sec(20)), 3.0);
    EXPECT_DOUBLE_EQ(p.rateAt(SimTime::sec(99)), 3.0); // clamp right
    EXPECT_DOUBLE_EQ(p.maxRate(), 3.0);
}

TEST(LoadProfile, LevelFractions)
{
    EXPECT_DOUBLE_EQ(LoadProfile::levelFraction(LoadLevel::Low), 0.35);
    EXPECT_GT(LoadProfile::levelFraction(LoadLevel::Medium), 1.0);
    EXPECT_GT(LoadProfile::levelFraction(LoadLevel::High),
              LoadProfile::levelFraction(LoadLevel::Medium));
}

TEST(LoadProfile, ForLevelScalesToCapacity)
{
    const auto sirius = WorkloadModel::sirius();
    const auto p =
        LoadProfile::forLevel(sirius, LoadLevel::Low, 1800);
    EXPECT_NEAR(p.rateAt(SimTime::zero()),
                0.35 * sirius.bottleneckCapacityAt(1800), 1e-9);
}

TEST(LoadProfile, DiurnalOscillatesBetweenBounds)
{
    const auto p = LoadProfile::diurnal(1.0, 3.0, SimTime::sec(100));
    EXPECT_NEAR(p.rateAt(SimTime::zero()), 1.0, 1e-9);
    EXPECT_NEAR(p.rateAt(SimTime::sec(50)), 3.0, 1e-9);
    EXPECT_NEAR(p.rateAt(SimTime::sec(100)), 1.0, 1e-9);
    EXPECT_NEAR(p.rateAt(SimTime::sec(25)), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(p.maxRate(), 3.0);
}

TEST(LoadProfile, Fig11HasLowValley)
{
    const auto sirius = WorkloadModel::sirius();
    const auto p = LoadProfile::fig11(sirius, 1800);
    const double cap = sirius.bottleneckCapacityAt(1800);
    EXPECT_GT(p.rateAt(SimTime::sec(100)), cap);       // opening burst
    EXPECT_NEAR(p.rateAt(SimTime::sec(225)), 0.3 * cap, 1e-9);
    EXPECT_GT(p.rateAt(SimTime::sec(500)), 0.9 * cap); // second rise
}

TEST(LoadProfileDeath, BadInputsAreFatal)
{
    EXPECT_EXIT(LoadProfile::constant(0.0), testing::ExitedWithCode(1),
                "positive");
    EXPECT_EXIT(LoadProfile::piecewise({}), testing::ExitedWithCode(1),
                "at least one");
    EXPECT_EXIT(LoadProfile::piecewise({{SimTime::sec(2), 1.0},
                                        {SimTime::sec(1), 1.0}}),
                testing::ExitedWithCode(1), "increasing");
    EXPECT_EXIT(LoadProfile::diurnal(2.0, 1.0, SimTime::sec(10)),
                testing::ExitedWithCode(1), "lo <= hi");
}

// --------------------------------------------------------- LoadGenerator

class LoadGenTest : public testing::Test
{
  protected:
    LoadGenTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 4), bus(&sim)
    {
        // A fast single-stage app so queries drain immediately.
        std::vector<StageSpec> specs = {
            {"S", 1, 12, DispatchPolicy::JoinShortestQueue}};
        WorkloadModel::sirius(); // ensure linkage
        fast = std::make_unique<WorkloadModel>(
            "fast", std::vector<StageProfile>{
                        StageProfile{"S", 0.001, 0.1, 0.5, 1800}});
        app = std::make_unique<MultiStageApp>(&sim, &chip, &bus, "app",
                                              specs);
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    std::unique_ptr<WorkloadModel> fast;
    std::unique_ptr<MultiStageApp> app;
};

TEST_F(LoadGenTest, PoissonRateIsRespected)
{
    LoadGenerator gen(&sim, app.get(), fast.get(),
                      LoadProfile::constant(10.0), 7, 1200);
    gen.start(SimTime::sec(500));
    sim.runUntil(SimTime::sec(500));
    // Expect ~5000 arrivals; tolerate 4 sigma (~283).
    EXPECT_NEAR(static_cast<double>(gen.generated()), 5000.0, 300.0);
    EXPECT_EQ(app->submitted(), gen.generated());
}

TEST_F(LoadGenTest, DeterministicUnderSeed)
{
    LoadGenerator a(&sim, app.get(), fast.get(),
                    LoadProfile::constant(5.0), 11, 1200);
    a.start(SimTime::sec(100));
    sim.runUntil(SimTime::sec(100));
    const auto firstRun = a.generated();

    // A fresh identical world must reproduce the exact count.
    Simulator sim2;
    CmpChip chip2(&sim2, &model, 4);
    MessageBus bus2(&sim2);
    std::vector<StageSpec> specs = {
        {"S", 1, 12, DispatchPolicy::JoinShortestQueue}};
    MultiStageApp app2(&sim2, &chip2, &bus2, "app", specs);
    LoadGenerator b(&sim2, &app2, fast.get(),
                    LoadProfile::constant(5.0), 11, 1200);
    b.start(SimTime::sec(100));
    sim2.runUntil(SimTime::sec(100));
    EXPECT_EQ(firstRun, b.generated());
}

TEST_F(LoadGenTest, ThinningTracksTimeVaryingRate)
{
    // 0 qps-ish in the first half, 20 qps in the second.
    LoadGenerator gen(&sim, app.get(), fast.get(),
                      LoadProfile::piecewise({
                          {SimTime::sec(0), 0.2},
                          {SimTime::sec(249), 0.2},
                          {SimTime::sec(250), 20.0},
                      }),
                      13, 1200);
    gen.start(SimTime::sec(500));
    std::uint64_t firstHalf = 0;
    sim.runUntil(SimTime::sec(250));
    firstHalf = gen.generated();
    sim.runUntil(SimTime::sec(500));
    const std::uint64_t secondHalf = gen.generated() - firstHalf;
    EXPECT_LT(firstHalf, 120u);
    EXPECT_NEAR(static_cast<double>(secondHalf), 5000.0, 350.0);
}

TEST_F(LoadGenTest, StopsAtHorizon)
{
    LoadGenerator gen(&sim, app.get(), fast.get(),
                      LoadProfile::constant(10.0), 7, 1200);
    gen.start(SimTime::sec(10));
    sim.run(); // drain everything
    EXPECT_LE(sim.now().toSec(), 11.0);
}

TEST_F(LoadGenTest, QueriesCarryPerStageDemands)
{
    QueryPtr seen;
    app->setCompletionSink([&](QueryPtr q) { seen = std::move(q); });
    LoadGenerator gen(&sim, app.get(), fast.get(),
                      LoadProfile::constant(5.0), 7, 1200);
    gen.start(SimTime::sec(10));
    sim.run();
    ASSERT_TRUE(seen);
    EXPECT_EQ(seen->numStages(), 1);
    EXPECT_GT(seen->demand(0).serviceSec(1800, 1200), 0.0);
}

// --------------------------------------------------------- ArrivalStream

/** A stream over two groups that alternates them, arrival by arrival. */
ArrivalStream
alternatingStream()
{
    const WorkloadModel model("fast", std::vector<StageProfile>{
                                          StageProfile{"S", 0.001, 0.1,
                                                       0.5, 1800}});
    return ArrivalStream(model, LoadProfile::constant(100.0), 5, 1200,
                         SimTime::zero(), SimTime::sec(10), 1, 2,
                         [n = 0]() mutable { return n++ % 2; });
}

TEST(ArrivalStream, GroupReaderSeesItsShareOfWhatIsDrawn)
{
    // The drawing reader walks every arrival; the group-1 reader, on
    // what drawThrough() published, sees exactly the odd ones.
    ArrivalStream stream = alternatingStream();
    ArrivalStream::Reader all = stream.reader(0, -1);
    ArrivalStream::Reader odd = stream.reader(1, 1);
    const SimTime until = SimTime::sec(3);
    stream.drawThrough(until);
    std::vector<std::uint64_t> expected;
    for (const ArrivalStream::Arrival *a = all.next(until); a;
         all.pop(), a = all.next(until))
        if (a->seq % 2 == 1)
            expected.push_back(a->seq);
    std::vector<std::uint64_t> seen;
    for (const ArrivalStream::Arrival *a = odd.next(until); a;
         odd.pop(), a = odd.next(until)) {
        EXPECT_EQ(a->group, 1);
        seen.push_back(a->seq);
    }
    EXPECT_GT(seen.size(), 2 * ArrivalStream::kChunkArrivals);
    EXPECT_EQ(seen, expected);
}

TEST(ArrivalStreamDeath, GroupReaderPastTheDrawnArrivalsPanics)
{
    EXPECT_DEATH(
        {
            ArrivalStream stream = alternatingStream();
            ArrivalStream::Reader odd = stream.reader(1, 1);
            while (odd.next(SimTime::sec(5)))
                odd.pop();
        },
        "reader 1 asked through 5.000000 s, past the arrivals drawn");
}

TEST(LoadLevelNames, ToString)
{
    EXPECT_STREQ(toString(LoadLevel::Low), "low");
    EXPECT_STREQ(toString(LoadLevel::Medium), "medium");
    EXPECT_STREQ(toString(LoadLevel::High), "high");
}

} // namespace
} // namespace pc
