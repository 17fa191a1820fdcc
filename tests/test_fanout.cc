/** @file Tests for fan-out/fan-in stages (Web Search leaves). */

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "workloads/loadgen.h"
#include "test_query_slab.h"

namespace pc {
namespace {

class FanOutTest : public testing::Test
{
  protected:
    FanOutTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 12),
          bus(&sim)
    {
    }

    /** Build LEAF(fan-out, n leaves) -> AGG app; no shard jitter. */
    std::unique_ptr<MultiStageApp>
    makeSearch(int leaves, double shardCv = 0.0)
    {
        StageSpec leaf;
        leaf.name = "LEAF";
        leaf.initialInstances = leaves;
        leaf.initialLevel = 0;
        leaf.kind = StageKind::FanOut;
        leaf.referenceShards = leaves;
        leaf.shardCv = shardCv;
        StageSpec agg;
        agg.name = "AGG";
        agg.initialInstances = 1;
        agg.initialLevel = 0;
        auto app = std::make_unique<MultiStageApp>(
            &sim, &chip, &bus, "search",
            std::vector<StageSpec>{leaf, agg});
        app->setCompletionSink(
            [this](QueryPtr q) { done.push_back(std::move(q)); });
        return app;
    }

    QueryPtr
    makeQuery(std::int64_t id, double leafCpuRef, double leafMem,
              double aggMem = 0.0)
    {
        return testQuery(
            id, sim.now(),
            std::vector<WorkDemand>{{leafCpuRef, leafMem},
                                    {0.0, aggMem}});
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    std::vector<QueryPtr> done;
};

TEST_F(FanOutTest, ShardsToEveryLiveInstance)
{
    auto app = makeSearch(4);
    app->submit(makeQuery(1, 0.0, 0.5));
    // One shard per leaf, all in service simultaneously.
    for (auto *inst : app->stage(0).instances())
        EXPECT_EQ(inst->queueLength(), 1u);
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    // 4 leaf hops + 1 aggregation hop.
    EXPECT_EQ(done[0]->numHops(), 5u);
}

TEST_F(FanOutTest, CompletesWhenSlowestShardReturns)
{
    auto app = makeSearch(2);
    // Slow down one leaf: service = cpuRef * (1200/f); leaf A at 1.2
    // takes 1.2 s, leaf B at 2.4 takes 0.6 s.
    auto leaves = app->stage(0).instances();
    chip.core(leaves[1]->coreId()).setLevel(12);
    app->submit(makeQuery(1, 1.2, 0.0));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_NEAR(done[0]->endToEnd().toSec(), 1.2, 1e-5);
}

TEST_F(FanOutTest, AggregationRunsOncePerQuery)
{
    auto app = makeSearch(4);
    app->submit(makeQuery(1, 0.0, 0.2, /*aggMem=*/0.1));
    sim.run();
    EXPECT_EQ(app->stage(1).instances()[0]->queriesServed(), 1u);
    EXPECT_NEAR(done[0]->endToEnd().toSec(), 0.3, 1e-5);
}

TEST_F(FanOutTest, ShardWorkScalesWithLeafCount)
{
    // 2 leaves at reference 2: scale 1.0 -> serving 0.5 s each.
    auto app = makeSearch(2);
    app->submit(makeQuery(1, 0.0, 0.5));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_NEAR(done[0]->hop(0).serving().toSec(), 0.5, 1e-5);

    // Launch two more leaves: scale 2/4 -> serving 0.25 s each.
    app->stage(0).launchInstance(0);
    app->stage(0).launchInstance(0);
    done.clear();
    app->submit(makeQuery(2, 0.0, 0.5));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->numHops(), 5u); // 4 shards + agg
    EXPECT_NEAR(done[0]->hop(0).serving().toSec(), 0.25, 1e-5);
}

TEST_F(FanOutTest, WithdrawnLeafShardRedirects)
{
    auto app = makeSearch(3);
    auto leaves = app->stage(0).instances();
    // Occupy all leaves with a long query, then submit another whose
    // shards queue up; withdrawing a leaf must move its queued shard.
    app->submit(makeQuery(1, 6.0, 0.0));
    app->submit(makeQuery(2, 6.0, 0.0));
    EXPECT_EQ(leaves[2]->queueLength(), 2u);
    ASSERT_TRUE(app->stage(0).withdrawInstance(leaves[2]->id(),
                                               leaves[0]));
    EXPECT_EQ(leaves[0]->waitingCount(), 2u); // own shard + redirected
    sim.run();
    // Both queries complete with full shard trails (3 + agg each).
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0]->numHops(), 4u);
    EXPECT_EQ(done[1]->numHops(), 4u);
}

TEST_F(FanOutTest, NewQueriesAfterWithdrawFanNarrower)
{
    auto app = makeSearch(3);
    auto leaves = app->stage(0).instances();
    ASSERT_TRUE(app->stage(0).withdrawInstance(leaves[2]->id()));
    sim.run(); // reap
    app->submit(makeQuery(1, 0.0, 0.4));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->numHops(), 3u); // 2 shards + agg
    // Re-sharding: per-leaf work grew by 3/2.
    EXPECT_NEAR(done[0]->hop(0).serving().toSec(), 0.6, 1e-5);
}

TEST_F(FanOutTest, ShardJitterIsDeterministicPerSeed)
{
    auto run = [&](std::vector<double> *served) {
        Simulator localSim;
        CmpChip localChip(&localSim, &model, 12);
        MessageBus localBus(&localSim);
        StageSpec leaf;
        leaf.name = "LEAF";
        leaf.initialInstances = 3;
        leaf.initialLevel = 0;
        leaf.kind = StageKind::FanOut;
        leaf.shardCv = 0.5;
        MultiStageApp app(&localSim, &localChip, &localBus, "s",
                          {leaf});
        app.setCompletionSink([&](QueryPtr q) {
            for (std::size_t i = 0; i < q->numHops(); ++i)
                served->push_back(q->hop(i).serving().toSec());
        });
        app.submit(testQuery(
            1, localSim.now(),
            std::vector<WorkDemand>{{0.0, 0.5}}));
        localSim.run();
    };
    std::vector<double> a;
    std::vector<double> b;
    run(&a);
    run(&b);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a, b);
    // Jitter actually varies the shards.
    EXPECT_NE(a[0], a[1]);
}

TEST_F(FanOutTest, SingleLeafDegeneratesToPipeline)
{
    auto app = makeSearch(1);
    app->submit(makeQuery(1, 0.0, 0.5));
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->numHops(), 2u);
    EXPECT_NEAR(done[0]->endToEnd().toSec(), 0.5, 1e-5);
}

TEST_F(FanOutTest, WebSearchModelEndToEnd)
{
    const auto search = WorkloadModel::webSearch();
    auto app = std::make_unique<MultiStageApp>(
        &sim, &chip, &bus, "ws",
        search.layout({10, 1}, model.ladder().maxLevel()));
    std::uint64_t completions = 0;
    app->setCompletionSink([&](const QueryPtr &q) {
        ++completions;
        EXPECT_EQ(q->numHops(), 11u);
    });
    LoadGenerator gen(&sim, app.get(), &search,
                      LoadProfile::constant(20.0), 5,
                      model.ladder().freqAt(0).value());
    gen.start(SimTime::sec(60));
    sim.runUntil(SimTime::sec(62));
    EXPECT_GT(completions, 1000u);
}

TEST(FanOutDeath, ConfigureOnPipelineStagePanics)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    Stage stage(0, "S", &sim, &chip);
    EXPECT_DEATH(stage.configureFanOut(4, 0.0, 1), "not a fan-out");
}

TEST(FanOutDeath, BadReferenceShardsIsFatal)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    Stage stage(0, "S", &sim, &chip,
                DispatchPolicy::JoinShortestQueue, StageKind::FanOut);
    EXPECT_EXIT(stage.configureFanOut(0, 0.0, 1),
                testing::ExitedWithCode(1), "positive");
}

} // namespace
} // namespace pc
