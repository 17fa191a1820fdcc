/** @file Unit tests for bottleneck metrics and the identifier. */

#include <gtest/gtest.h>

#include "core/bottleneck.h"

namespace pc {
namespace {

InstanceSnapshot
snap(std::size_t queue, double q, double s, double tq = 0, double ts = 0)
{
    InstanceSnapshot out;
    out.queueLength = queue;
    out.avgQueuingSec = q;
    out.avgServingSec = s;
    out.p99QueuingSec = tq;
    out.p99ServingSec = ts;
    return out;
}

TEST(Metrics, PowerChiefEquationOne)
{
    PowerChiefMetric m;
    // L*q + s.
    EXPECT_DOUBLE_EQ(m.score(snap(4, 0.5, 1.0)), 3.0);
    EXPECT_DOUBLE_EQ(m.score(snap(0, 0.5, 1.0)), 1.0);
    EXPECT_STREQ(m.name(), "powerchief");
}

TEST(Metrics, QueueLengthDominatesUnderBurst)
{
    // The §4.2 motivating case: a historically fast instance with a
    // deep realtime queue must outrank a slow-but-idle one.
    PowerChiefMetric m;
    const auto busy = snap(20, 0.2, 0.3);  // fast but swamped
    const auto idle = snap(1, 0.5, 2.0);   // slow but idle
    EXPECT_GT(m.score(busy), m.score(idle));

    AvgProcessingMetric historic;
    EXPECT_LT(historic.score(busy), historic.score(idle));
}

TEST(Metrics, TableOneAlternatives)
{
    const auto s = snap(3, 0.4, 1.1, 0.9, 2.5);
    EXPECT_DOUBLE_EQ(AvgQueuingMetric().score(s), 0.4);
    EXPECT_DOUBLE_EQ(AvgServingMetric().score(s), 1.1);
    EXPECT_DOUBLE_EQ(AvgProcessingMetric().score(s), 1.5);
    EXPECT_DOUBLE_EQ(TailProcessingMetric().score(s), 3.4);
}

class IdentifierTest : public testing::Test
{
  protected:
    IdentifierTest()
        : model(PowerModel::haswell()), chip(&sim, &model, 8), bus(&sim)
    {
        std::vector<StageSpec> specs = {
            {"A", 1, 0, DispatchPolicy::JoinShortestQueue},
            {"B", 2, 0, DispatchPolicy::JoinShortestQueue},
        };
        app = std::make_unique<MultiStageApp>(&sim, &chip, &bus, "app",
                                              specs);
    }

    /** Report one query that spent (q, s) seconds at instance @p inst
     *  to @p into (the fixture's identifier by default). */
    void
    report(const ServiceInstance *inst, double q, double s, SimTime at,
           BottleneckIdentifier *into = nullptr)
    {
        Query query(nextId++, SimTime::zero(),
                    {WorkDemand{}, WorkDemand{}});
        HopRecord hop;
        hop.instanceId = inst->id();
        hop.stageIndex = inst->stageIndex();
        hop.enqueued = SimTime::zero();
        hop.started = SimTime::sec(q);
        hop.finished = SimTime::sec(q + s);
        query.addHop(hop);
        (into ? *into : identifier).observe(at, query);
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    std::unique_ptr<MultiStageApp> app;
    BottleneckIdentifier identifier{SimTime::sec(50)};
    std::int64_t nextId = 1;
};

TEST_F(IdentifierTest, RanksAscendingByMetric)
{
    const auto *a = app->stage(0).instances()[0];
    const auto *b0 = app->stage(1).instances()[0];
    const auto *b1 = app->stage(1).instances()[1];
    report(a, 0.1, 0.5, SimTime::sec(1));
    report(b0, 0.1, 2.0, SimTime::sec(1));
    report(b1, 0.1, 1.0, SimTime::sec(1));

    auto ranked = identifier.rank(SimTime::sec(1), *app);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_LE(ranked[0].metric, ranked[1].metric);
    EXPECT_LE(ranked[1].metric, ranked[2].metric);
    EXPECT_EQ(ranked.back().instanceId, b0->id());
    EXPECT_EQ(ranked.front().instanceId, a->id());
}

TEST_F(IdentifierTest, BottleneckIsBack)
{
    const auto *a = app->stage(0).instances()[0];
    report(a, 0.0, 3.0, SimTime::sec(1));
    const auto bn = identifier.bottleneck(SimTime::sec(1), *app);
    EXPECT_EQ(bn.instanceId, a->id());
    EXPECT_DOUBLE_EQ(bn.avgServingSec, 3.0);
}

TEST_F(IdentifierTest, WindowMeansAreAveraged)
{
    const auto *a = app->stage(0).instances()[0];
    report(a, 0.2, 1.0, SimTime::sec(1));
    report(a, 0.4, 2.0, SimTime::sec(2));
    auto ranked = identifier.rank(SimTime::sec(2), *app);
    const auto &snapA = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == a->id(); });
    EXPECT_NEAR(snapA.avgQueuingSec, 0.3, 1e-9);
    EXPECT_NEAR(snapA.avgServingSec, 1.5, 1e-9);
}

TEST_F(IdentifierTest, OldSamplesEvicted)
{
    const auto *a = app->stage(0).instances()[0];
    report(a, 0.0, 10.0, SimTime::sec(1));
    report(a, 0.0, 1.0, SimTime::sec(60));
    // At t=60 the window spans [10, 60]: only the second sample remains.
    auto ranked = identifier.rank(SimTime::sec(60), *app);
    const auto &snapA = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == a->id(); });
    EXPECT_DOUBLE_EQ(snapA.avgServingSec, 1.0);
}

TEST_F(IdentifierTest, RealtimeQueueLengthInSnapshot)
{
    auto *a = app->stage(0).instances()[0];
    const_cast<ServiceInstance *>(a)->enqueue(std::make_shared<Query>(
        99, SimTime::zero(),
        std::vector<WorkDemand>{{10.0, 0.0}, {}}));
    report(a, 0.5, 0.5, SimTime::sec(1));
    auto ranked = identifier.rank(SimTime::sec(1), *app);
    const auto &snapA = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == a->id(); });
    EXPECT_EQ(snapA.queueLength, 1u);
    // Metric = 1 * 0.5 + 0.5.
    EXPECT_DOUBLE_EQ(snapA.metric, 1.0);
}

TEST_F(IdentifierTest, FreshInstanceSeededFromStageAggregate)
{
    const auto *b0 = app->stage(1).instances()[0];
    report(b0, 0.3, 1.5, SimTime::sec(1));
    // b1 never served a query: it inherits stage-level averages.
    auto ranked = identifier.rank(SimTime::sec(1), *app);
    const auto *b1 = app->stage(1).instances()[1];
    const auto &snapB1 = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == b1->id(); });
    EXPECT_DOUBLE_EQ(snapB1.avgServingSec, 1.5);
    EXPECT_DOUBLE_EQ(snapB1.avgQueuingSec, 0.3);
}

TEST_F(IdentifierTest, StaleWindowExcludesSilentInstances)
{
    identifier.setStaleWindow(SimTime::sec(30));
    const auto *a = app->stage(0).instances()[0];
    const auto *b0 = app->stage(1).instances()[0];
    const auto *b1 = app->stage(1).instances()[1];
    report(a, 0.1, 0.5, SimTime::sec(1));  // reports, then goes silent
    report(b0, 0.1, 2.0, SimTime::sec(1)); // likewise
    report(b1, 0.1, 1.0, SimTime::sec(40));

    // At t=40 only b1 reported within the 30 s window: a and b0 are
    // excluded instead of being scored on frozen averages.
    auto ranked = identifier.rank(SimTime::sec(40), *app);
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].instanceId, b1->id());
    ASSERT_EQ(identifier.lastStaleSkips().size(), 2u);
    for (const auto &skip : identifier.lastStaleSkips())
        EXPECT_NEAR(skip.ageSec, 39.0, 1e-9);
    EXPECT_EQ(identifier.staleSkipsTotal(), 2u);

    // Once everyone reports again, nobody is skipped.
    report(a, 0.1, 0.5, SimTime::sec(45));
    report(b0, 0.1, 2.0, SimTime::sec(45));
    report(b1, 0.1, 1.0, SimTime::sec(45));
    ranked = identifier.rank(SimTime::sec(45), *app);
    EXPECT_EQ(ranked.size(), 3u);
    EXPECT_TRUE(identifier.lastStaleSkips().empty());
    EXPECT_EQ(identifier.staleSkipsTotal(), 2u);
}

TEST_F(IdentifierTest, ZeroStaleWindowDisablesGuard)
{
    const auto *a = app->stage(0).instances()[0];
    report(a, 0.1, 0.5, SimTime::sec(1));
    // Default window is zero: even a long-silent instance still ranks.
    auto ranked = identifier.rank(SimTime::sec(200), *app);
    EXPECT_EQ(ranked.size(), 3u);
    EXPECT_TRUE(identifier.lastStaleSkips().empty());
    EXPECT_EQ(identifier.staleSkipsTotal(), 0u);
}

TEST_F(IdentifierTest, NeverReportingInstanceIsNotStale)
{
    identifier.setStaleWindow(SimTime::sec(30));
    const auto *b0 = app->stage(1).instances()[0];
    // b1 never reports at all: it is a fresh clone seeded from the
    // stage aggregate, not a stale instance.
    report(b0, 0.3, 1.5, SimTime::sec(100));
    auto ranked = identifier.rank(SimTime::sec(100), *app);
    EXPECT_EQ(ranked.size(), 3u);
    EXPECT_TRUE(identifier.lastStaleSkips().empty());
}

TEST_F(IdentifierTest, NoHistoryAnywhereScoresZero)
{
    auto ranked = identifier.rank(SimTime::sec(1), *app);
    for (const auto &s : ranked)
        EXPECT_DOUBLE_EQ(s.metric, 0.0);
}

TEST_F(IdentifierTest, SnapshotCarriesIdentity)
{
    const auto *a = app->stage(0).instances()[0];
    report(a, 0.1, 0.1, SimTime::sec(1));
    auto ranked = identifier.rank(SimTime::sec(1), *app);
    const auto &snapA = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == a->id(); });
    EXPECT_EQ(snapA.name, a->name());
    EXPECT_EQ(snapA.stageIndex, 0);
    EXPECT_EQ(snapA.coreId, a->coreId());
    EXPECT_EQ(snapA.level, a->level());
}

TEST_F(IdentifierTest, P99FieldsPopulated)
{
    // Only a metric that reads the tails gets them computed.
    BottleneckIdentifier tail(SimTime::sec(50),
                              std::make_unique<TailProcessingMetric>());
    const auto *a = app->stage(0).instances()[0];
    for (int i = 1; i <= 100; ++i)
        report(a, 0.0, static_cast<double>(i) / 100.0, SimTime::sec(1),
               &tail);
    auto ranked = tail.rank(SimTime::sec(1), *app);
    const auto &snapA = *std::find_if(
        ranked.begin(), ranked.end(),
        [&](const auto &s) { return s.instanceId == a->id(); });
    EXPECT_NEAR(snapA.p99ServingSec, 0.99, 0.02);
    EXPECT_DOUBLE_EQ(snapA.metric,
                     snapA.p99QueuingSec + snapA.p99ServingSec);
}

/** Eq. 1, but declaring that it reads the p99 fields. */
class TailReadingPowerChiefMetric : public PowerChiefMetric
{
  public:
    bool readsTailQuantiles() const override { return true; }
};

TEST_F(IdentifierTest, DefaultMetricSkipsP99sWithoutChangingTheRanking)
{
    BottleneckIdentifier withTails(
        SimTime::sec(50), std::make_unique<TailReadingPowerChiefMetric>());
    const auto *a = app->stage(0).instances()[0];
    const auto *b0 = app->stage(1).instances()[0];
    const auto *b1 = app->stage(1).instances()[1];
    for (int i = 1; i <= 50; ++i) {
        const SimTime at = SimTime::msec(20 * i);
        const double x = static_cast<double>(i % 7) / 10.0;
        for (BottleneckIdentifier *id : {&identifier, &withTails}) {
            report(a, 0.1 * x, 0.5 + x, at, id);
            report(b0, x, 0.2, at, id);
            report(b1, 0.05, 0.4 + 2 * x, at, id);
        }
    }
    EXPECT_FALSE(identifier.metric().readsTailQuantiles());
    const auto plain = identifier.rank(SimTime::sec(1), *app);
    const auto tails = withTails.rank(SimTime::sec(1), *app);
    ASSERT_EQ(plain.size(), 3u);
    ASSERT_EQ(tails.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].instanceId, tails[i].instanceId);
        EXPECT_EQ(plain[i].metric, tails[i].metric);
        EXPECT_EQ(plain[i].avgQueuingSec, tails[i].avgQueuingSec);
        EXPECT_EQ(plain[i].avgServingSec, tails[i].avgServingSec);
        EXPECT_EQ(plain[i].p99QueuingSec, 0.0);
        EXPECT_EQ(plain[i].p99ServingSec, 0.0);
        EXPECT_GT(tails[i].p99ServingSec, 0.0);
    }
}

TEST_F(IdentifierTest, StageDelayQuantilesFillEveryRequestedSlot)
{
    // More quantiles than any fixed-size buffer would hold, each equal
    // to the sum of the stage's queuing and serving window quantiles.
    const auto *b0 = app->stage(1).instances()[0];
    MovingWindow queuing(SimTime::sec(50)), serving(SimTime::sec(50));
    for (int i = 1; i <= 40; ++i) {
        const double q = 0.01 * i;
        report(b0, q, 0.5, SimTime::sec(1));
        queuing.add(SimTime::sec(1), SimTime::sec(q).toSec());
        serving.add(SimTime::sec(1),
                    (SimTime::sec(q + 0.5) - SimTime::sec(q)).toSec());
    }
    std::vector<double> qs;
    for (int i = 0; i <= 11; ++i)
        qs.push_back(i / 11.0);
    std::vector<double> out(qs.size(), -1.0);
    identifier.stageDelayQuantiles(1, qs.data(), out.data(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(out[i],
                  queuing.quantile(qs[i]) + serving.quantile(qs[i]))
            << "q " << qs[i];
    }
}

TEST_F(IdentifierTest, GarbageCollectDropsDeadInstances)
{
    auto *b1 = app->stage(1).instances()[1];
    report(b1, 0.1, 0.1, SimTime::sec(1));
    const auto deadId = b1->id();
    ASSERT_TRUE(app->stage(1).withdrawInstance(deadId));
    sim.run(); // reap
    identifier.garbageCollect(*app);
    // Ranking only includes live instances.
    auto ranked = identifier.rank(SimTime::sec(1), *app);
    for (const auto &s : ranked)
        EXPECT_NE(s.instanceId, deadId);
}

TEST_F(IdentifierTest, CustomMetricUsed)
{
    BottleneckIdentifier custom(
        SimTime::sec(50), std::make_unique<AvgServingMetric>());
    EXPECT_STREQ(custom.metric().name(), "avg-serving");
}

TEST(IdentifierDeath, EmptyAppBottleneckPanics)
{
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 2);
    MessageBus bus(&sim);
    std::vector<StageSpec> specs = {
        {"A", 1, 0, DispatchPolicy::JoinShortestQueue}};
    MultiStageApp app(&sim, &chip, &bus, "app", specs);
    BottleneckIdentifier identifier{SimTime::sec(50)};
    // Withdraw refuses to empty the stage, so fabricate an app with no
    // instances via draining: not possible through the API — instead
    // verify the panic contract with an app that has instances removed
    // is unreachable; check window validation instead.
    EXPECT_EXIT(BottleneckIdentifier(SimTime::zero()),
                testing::ExitedWithCode(1), "positive");
    (void)app;
    (void)identifier;
}

} // namespace
} // namespace pc
