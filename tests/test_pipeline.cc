/** @file Unit tests for the multi-stage pipeline. */

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "test_query_slab.h"

namespace pc {
namespace {

class PipelineTest : public testing::Test
{
  protected:
    PipelineTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 8), bus(&sim)
    {
    }

    MultiStageApp
    makeApp(int stages, int perStage = 1)
    {
        std::vector<StageSpec> specs;
        for (int i = 0; i < stages; ++i) {
            StageSpec s;
            s.name = "S" + std::to_string(i);
            s.initialInstances = perStage;
            s.initialLevel = 0;
            specs.push_back(s);
        }
        return MultiStageApp(&sim, &chip, &bus, "app", specs);
    }

    QueryPtr
    makeQuery(std::int64_t id, int stages, double secPerStage = 0.5)
    {
        std::vector<WorkDemand> demands(
            static_cast<std::size_t>(stages),
            WorkDemand{0.0, secPerStage});
        return testQuery(id, sim.now(), demands);
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
};

TEST_F(PipelineTest, LaunchesInitialLayout)
{
    auto app = makeApp(3, 2);
    EXPECT_EQ(app.numStages(), 3);
    EXPECT_EQ(app.allInstances().size(), 6u);
    EXPECT_EQ(chip.numAllocated(), 6);
    EXPECT_EQ(app.stage(0).name(), "S0");
}

TEST_F(PipelineTest, QueryFlowsThroughAllStages)
{
    auto app = makeApp(3);
    QueryPtr finished;
    app.setCompletionSink([&](QueryPtr q) { finished = std::move(q); });
    app.submit(makeQuery(1, 3, 0.5));
    sim.run();
    ASSERT_TRUE(finished);
    EXPECT_TRUE(finished->completed());
    ASSERT_EQ(finished->numHops(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(finished->hop(static_cast<std::size_t>(i))
                      .stageIndex, i);
    EXPECT_NEAR(finished->endToEnd().toSec(), 1.5, 1e-6);
}

TEST_F(PipelineTest, StagesOverlapAcrossQueries)
{
    // With one instance per stage, two queries pipeline: total time is
    // 4 x 0.5 s, not 6 x 0.5 s.
    auto app = makeApp(3);
    app.submit(makeQuery(1, 3, 0.5));
    app.submit(makeQuery(2, 3, 0.5));
    sim.run();
    EXPECT_EQ(app.completed(), 2u);
    EXPECT_NEAR(sim.now().toSec(), 2.0, 1e-6);
}

TEST_F(PipelineTest, CountsSubmittedCompletedInFlight)
{
    auto app = makeApp(2);
    app.submit(makeQuery(1, 2));
    app.submit(makeQuery(2, 2));
    EXPECT_EQ(app.submitted(), 2u);
    EXPECT_EQ(app.completed(), 0u);
    EXPECT_EQ(app.inFlight(), 2u);
    sim.run();
    EXPECT_EQ(app.completed(), 2u);
    EXPECT_EQ(app.inFlight(), 0u);
}

TEST_F(PipelineTest, ReportsToEndpointOnCompletion)
{
    auto app = makeApp(2);
    std::vector<QueryPtr> reports;
    const EndpointId endpoint = bus.registerEndpoint(
        "cc", [&](const MessagePtr &msg) {
            auto &m = dynamic_cast<const QueryCompletedMessage &>(*msg);
            reports.push_back(m.query);
        });
    app.setReportEndpoint(endpoint);
    app.submit(makeQuery(7, 2));
    sim.run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0]->id(), 7);
    EXPECT_EQ(reports[0]->numHops(), 2u);
}

TEST_F(PipelineTest, NoReportWithoutEndpoint)
{
    auto app = makeApp(1);
    app.submit(makeQuery(1, 1));
    sim.run();
    EXPECT_EQ(bus.messagesDelivered(), 0u);
}

TEST_F(PipelineTest, SinkSeesQueriesInCompletionOrder)
{
    auto app = makeApp(1, 2);
    std::vector<std::int64_t> order;
    app.setCompletionSink(
        [&](QueryPtr q) { order.push_back(q->id()); });
    // Query 2 is shorter and goes to the second (idle) instance.
    app.submit(testQuery(
        1, sim.now(), std::vector<WorkDemand>{{0.0, 1.0}}));
    app.submit(testQuery(
        2, sim.now(), std::vector<WorkDemand>{{0.0, 0.2}}));
    sim.run();
    EXPECT_EQ(order, (std::vector<std::int64_t>{2, 1}));
}

TEST_F(PipelineTest, SingleStageAppWorks)
{
    auto app = makeApp(1);
    app.submit(makeQuery(1, 1));
    sim.run();
    EXPECT_EQ(app.completed(), 1u);
}

TEST_F(PipelineTest, HopTimestampsAreConsistent)
{
    auto app = makeApp(3);
    QueryPtr finished;
    app.setCompletionSink([&](QueryPtr q) { finished = std::move(q); });
    app.submit(makeQuery(1, 3));
    sim.run();
    ASSERT_TRUE(finished);
    SimTime prev = finished->arrival();
    for (std::size_t i = 0; i < finished->numHops(); ++i) {
        const HopRecord hop = finished->hop(i);
        EXPECT_GE(hop.enqueued, prev);
        EXPECT_GE(hop.started, hop.enqueued);
        EXPECT_GE(hop.finished, hop.started);
        prev = hop.finished;
    }
}

TEST(PipelineDeath, EmptyStageListIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    MessageBus bus(&sim);
    EXPECT_EXIT(MultiStageApp(&sim, &chip, &bus, "x", {}),
                testing::ExitedWithCode(1), "at least one stage");
}

TEST(PipelineDeath, LayoutBeyondChipIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 1);
    MessageBus bus(&sim);
    StageSpec a{"A", 1, 0, DispatchPolicy::JoinShortestQueue};
    StageSpec b{"B", 1, 0, DispatchPolicy::JoinShortestQueue};
    EXPECT_EXIT(MultiStageApp(&sim, &chip, &bus, "x", {a, b}),
                testing::ExitedWithCode(1), "no free core");
}

TEST(PipelineDeath, DemandStageMismatchPanics)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    MessageBus bus(&sim);
    StageSpec a{"A", 1, 0, DispatchPolicy::JoinShortestQueue};
    StageSpec b{"B", 1, 0, DispatchPolicy::JoinShortestQueue};
    MultiStageApp app(&sim, &chip, &bus, "x", {a, b});
    auto q = testQuery(
        1, SimTime::zero(), std::vector<WorkDemand>{{0.1, 0.1}});
    EXPECT_DEATH(app.submit(q), "stage demands");
}

} // namespace
} // namespace pc
