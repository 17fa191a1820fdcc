/** @file Tests for stage skipping (mixed Sirius inputs, Fig. 8). */

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "workloads/loadgen.h"
#include "test_query_slab.h"

namespace pc {
namespace {

class SkipTest : public testing::Test
{
  protected:
    SkipTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 8), bus(&sim)
    {
        std::vector<StageSpec> specs = {
            {"A", 1, 0, DispatchPolicy::JoinShortestQueue},
            {"B", 1, 0, DispatchPolicy::JoinShortestQueue},
            {"C", 1, 0, DispatchPolicy::JoinShortestQueue}};
        app = std::make_unique<MultiStageApp>(&sim, &chip, &bus, "app",
                                              specs);
        app->setCompletionSink(
            [this](QueryPtr q) { done.push_back(std::move(q)); });
    }

    QueryPtr
    makeQuery(std::int64_t id, std::vector<bool> skips)
    {
        std::vector<WorkDemand> demands;
        for (bool skip : skips) {
            WorkDemand d;
            d.memSec = 0.5;
            d.skip = skip;
            demands.push_back(d);
        }
        return testQuery(id, sim.now(), demands);
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    std::unique_ptr<MultiStageApp> app;
    std::vector<QueryPtr> done;
};

TEST_F(SkipTest, MiddleStageSkipped)
{
    app->submit(makeQuery(1, {false, true, false}));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    ASSERT_EQ(done[0]->numHops(), 2u);
    EXPECT_EQ(done[0]->hop(0).stageIndex, 0);
    EXPECT_EQ(done[0]->hop(1).stageIndex, 2);
    EXPECT_NEAR(done[0]->endToEnd().toSec(), 1.0, 1e-6);
}

TEST_F(SkipTest, FirstStageSkipped)
{
    app->submit(makeQuery(1, {true, false, false}));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->hop(0).stageIndex, 1);
}

TEST_F(SkipTest, LastStageSkipped)
{
    app->submit(makeQuery(1, {false, false, true}));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->hop(done[0]->numHops() - 1).stageIndex, 1);
}

TEST_F(SkipTest, ConsecutiveSkips)
{
    app->submit(makeQuery(1, {false, true, true}));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->numHops(), 1u);
}

TEST_F(SkipTest, AllStagesSkippedCompletesImmediately)
{
    app->submit(makeQuery(1, {true, true, true}));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0]->numHops() == 0);
    EXPECT_EQ(done[0]->endToEnd(), SimTime::zero());
    EXPECT_EQ(app->completed(), 1u);
}

TEST_F(SkipTest, SkippedStageNeverSeesTheQuery)
{
    app->submit(makeQuery(1, {false, true, false}));
    sim.run();
    EXPECT_EQ(app->stage(1).instances()[0]->queriesServed(), 0u);
}

TEST_F(SkipTest, SkipsReportedToCommandCenter)
{
    std::size_t hops = 99;
    const EndpointId endpoint = bus.registerEndpoint(
        "cc", [&](const MessagePtr &msg) {
            hops = dynamic_cast<const QueryCompletedMessage &>(*msg)
                       .query->numHops();
        });
    app->setReportEndpoint(endpoint);
    app->submit(makeQuery(1, {false, true, false}));
    sim.run();
    EXPECT_EQ(hops, 2u);
}

TEST(SiriusMixed, HalfTheQueriesSkipImm)
{
    const auto mixed = WorkloadModel::siriusMixed();
    EXPECT_EQ(mixed.name(), "sirius-mixed");
    Rng rng(31);
    int skipped = 0;
    constexpr int kN = 4000;
    for (int i = 0; i < kN; ++i) {
        const auto demands = mixed.sampleDemands(rng, 1200);
        ASSERT_EQ(demands.size(), 3u);
        EXPECT_FALSE(demands[0].skip); // ASR always runs
        EXPECT_FALSE(demands[2].skip); // QA always runs
        skipped += demands[1].skip ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(skipped) / kN, 0.5, 0.03);
}

TEST(SiriusMixed, EndToEndRunWorks)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 8);
    MessageBus bus(&sim);
    const auto mixed = WorkloadModel::siriusMixed();
    MultiStageApp app(&sim, &chip, &bus, "mixed",
                      mixed.layout(1, model.ladder().midLevel()));
    std::uint64_t withImm = 0;
    std::uint64_t withoutImm = 0;
    app.setCompletionSink([&](const QueryPtr &q) {
        if (q->numHops() == 3)
            ++withImm;
        else if (q->numHops() == 2)
            ++withoutImm;
    });
    LoadGenerator gen(&sim, &app, &mixed, LoadProfile::constant(0.3),
                      7, model.ladder().freqAt(0).value());
    gen.start(SimTime::sec(400));
    sim.runUntil(SimTime::sec(420));
    EXPECT_GT(withImm, 20u);
    EXPECT_GT(withoutImm, 20u);
    EXPECT_EQ(app.completed(), withImm + withoutImm);
}

} // namespace
} // namespace pc
