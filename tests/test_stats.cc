/** @file Unit tests for the statistics module. */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "stats/timeseries.h"
#include "stats/window.h"

namespace pc {
namespace {

// ---------------------------------------------------------- Streaming

TEST(StreamingStats, EmptyIsZero)
{
    StreamingStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, MeanMinMax)
{
    StreamingStats s;
    for (double x : {3.0, 1.0, 2.0})
        s.add(x);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(StreamingStats, SampleVariance)
{
    StreamingStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StreamingStats, MergeEqualsSequential)
{
    StreamingStats a;
    StreamingStats b;
    StreamingStats all;
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(0, 10);
        (i < 50 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty)
{
    StreamingStats a;
    a.add(1.0);
    StreamingStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(StreamingStats, Reset)
{
    StreamingStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

// ------------------------------------------------------- ExactPercentile

TEST(ExactPercentile, EmptyReturnsZero)
{
    ExactPercentile p;
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 0.0);
    EXPECT_TRUE(p.empty());
}

TEST(ExactPercentile, SingleSample)
{
    ExactPercentile p;
    p.add(7.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 7.0);
}

TEST(ExactPercentile, MedianInterpolates)
{
    ExactPercentile p;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        p.add(x);
    EXPECT_DOUBLE_EQ(p.median(), 2.5);
}

TEST(ExactPercentile, KnownQuantiles)
{
    ExactPercentile p;
    for (int i = 0; i <= 100; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.25), 25.0);
    EXPECT_DOUBLE_EQ(p.p99(), 99.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
}

TEST(ExactPercentile, OrderInsensitive)
{
    std::vector<double> values{9, 1, 5, 3, 7, 2, 8, 4, 6};
    ExactPercentile a;
    for (double v : values)
        a.add(v);
    std::sort(values.begin(), values.end());
    ExactPercentile b;
    for (double v : values)
        b.add(v);
    for (double q : {0.1, 0.5, 0.9})
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

TEST(ExactPercentile, AddAfterQueryStaysCorrect)
{
    ExactPercentile p;
    p.add(1.0);
    p.add(3.0);
    EXPECT_DOUBLE_EQ(p.median(), 2.0);
    p.add(100.0);
    EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(ExactPercentile, MergeEmptySidesAreNoOps)
{
    ExactPercentile a;
    ExactPercentile empty;
    a.add(1.0);
    a.add(2.0);
    a.merge(empty); // empty other: nothing to absorb
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.median(), 1.5);

    ExactPercentile b;
    b.merge(a); // merge into empty
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.median(), 1.5);
}

TEST(ExactPercentile, SelfMergeDoublesWithoutChangingQuantiles)
{
    ExactPercentile p;
    for (double x : {4.0, 1.0, 3.0, 2.0})
        p.add(x);
    const double before = p.quantile(0.75);
    p.merge(p); // aliased source: must not iterate a growing vector
    EXPECT_EQ(p.count(), 8u);
    EXPECT_DOUBLE_EQ(p.median(), 2.5);
    EXPECT_DOUBLE_EQ(p.quantile(0.75), before);
}

TEST(ExactPercentile, MergeAfterQueryMatchesUnionOrder)
{
    ExactPercentile a;
    ExactPercentile b;
    for (double x : {9.0, 1.0, 5.0})
        a.add(x);
    for (double x : {2.0, 8.0})
        b.add(x);
    // Query first so both sides are in their sorted state, then merge:
    // the union must re-sort, not interleave stale sorted runs.
    EXPECT_DOUBLE_EQ(a.median(), 5.0);
    EXPECT_DOUBLE_EQ(b.median(), 5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.median(), 5.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 9.0);
}

TEST(ExactPercentile, DuplicatesDominateTheirRankRange)
{
    ExactPercentile p;
    for (double x : {2.0, 5.0, 5.0, 5.0, 5.0, 5.0, 8.0})
        p.add(x);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(p.median(), 5.0);
    // Any rank inside the tied run answers the tied value exactly.
    EXPECT_DOUBLE_EQ(p.quantile(0.3), 5.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.7), 5.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 8.0);
}

TEST(ExactPercentile, ExtremeQuantilesInterpolate)
{
    ExactPercentile p;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        p.add(x);
    // p0/p100 hit the extremes; near-extremes interpolate linearly
    // between the two closest order statistics.
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 40.0);
    EXPECT_NEAR(p.quantile(0.01), 10.3, 1e-12);
    EXPECT_NEAR(p.quantile(0.99), 39.7, 1e-12);
}

TEST(ExactPercentile, Clear)
{
    ExactPercentile p;
    p.add(1.0);
    p.clear();
    EXPECT_TRUE(p.empty());
}

TEST(ExactPercentileDeath, OutOfRangeQuantilePanics)
{
    ExactPercentile p;
    p.add(1.0);
    EXPECT_DEATH((void)p.quantile(1.5), "outside");
}

// ------------------------------------------------------------ P2Quantile

TEST(P2Quantile, ExactBelowFiveSamples)
{
    P2Quantile q(0.5);
    q.add(3.0);
    q.add(1.0);
    EXPECT_DOUBLE_EQ(q.value(), 2.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, EmptyIsZero)
{
    P2Quantile q(0.99);
    EXPECT_DOUBLE_EQ(q.value(), 0.0);
}

TEST(P2Quantile, ConstantStreamStaysConstant)
{
    P2Quantile q(0.95);
    for (int i = 0; i < 1000; ++i)
        q.add(4.25);
    EXPECT_EQ(q.count(), 1000u);
    EXPECT_DOUBLE_EQ(q.value(), 4.25);
}

TEST(P2Quantile, TracksUniformMedian)
{
    P2Quantile q(0.5);
    Rng rng(1);
    for (int i = 0; i < 20000; ++i)
        q.add(rng.uniform(0.0, 1.0));
    EXPECT_NEAR(q.value(), 0.5, 0.02);
}

TEST(P2Quantile, TracksLognormalTail)
{
    P2Quantile q(0.99);
    ExactPercentile exact;
    Rng rng(2);
    for (int i = 0; i < 50000; ++i) {
        const double x = rng.lognormal(1.0, 0.6);
        q.add(x);
        exact.add(x);
    }
    EXPECT_NEAR(q.value(), exact.p99(), 0.15 * exact.p99());
}

TEST(P2QuantileDeath, DegenerateQuantileLevelPanics)
{
    EXPECT_DEATH(P2Quantile(0.0), "0,1");
    EXPECT_DEATH(P2Quantile(1.0), "0,1");
}

// ---------------------------------------------------------- MovingWindow

TEST(MovingWindow, EmptyBehaviour)
{
    MovingWindow w(SimTime::sec(10));
    EXPECT_TRUE(w.empty());
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
    EXPECT_DOUBLE_EQ(w.quantile(0.5), 0.0);
}

TEST(MovingWindow, MeanOfRetained)
{
    MovingWindow w(SimTime::sec(10));
    w.add(SimTime::sec(1), 1.0);
    w.add(SimTime::sec(2), 3.0);
    EXPECT_DOUBLE_EQ(w.mean(), 2.0);
    EXPECT_EQ(w.size(), 2u);
}

TEST(MovingWindow, EvictsOldSamples)
{
    MovingWindow w(SimTime::sec(10));
    w.add(SimTime::sec(0), 100.0);
    w.add(SimTime::sec(5), 1.0);
    w.add(SimTime::sec(11), 3.0); // evicts the t=0 sample
    EXPECT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w.mean(), 2.0);
}

TEST(MovingWindow, ExplicitEvict)
{
    MovingWindow w(SimTime::sec(10));
    w.add(SimTime::sec(0), 1.0);
    w.evict(SimTime::sec(20));
    EXPECT_TRUE(w.empty());
}

TEST(MovingWindow, BoundaryExactlyAtCutoffSurvives)
{
    MovingWindow w(SimTime::sec(10));
    w.add(SimTime::sec(0), 1.0);
    w.evict(SimTime::sec(10)); // cutoff = 0; samples at t >= 0 stay
    EXPECT_EQ(w.size(), 1u);
}

TEST(MovingWindow, MaxAndQuantile)
{
    MovingWindow w(SimTime::sec(100));
    for (int i = 1; i <= 100; ++i)
        w.add(SimTime::sec(i * 0.5), static_cast<double>(i));
    EXPECT_DOUBLE_EQ(w.max(), 100.0);
    EXPECT_NEAR(w.quantile(0.99), 99.0, 1.0);
    EXPECT_NEAR(w.quantile(0.5), 50.5, 1.0);
}

// ------------------------------------------------------------ TimeSeries

TEST(MovingWindow, BatchQuantilesMatchSingleCalls)
{
    MovingWindow w(SimTime::sec(60));
    for (int i = 1; i <= 100; ++i)
        w.add(SimTime::msec(i * 10), static_cast<double>(i));
    const double qs[3] = {0.5, 0.95, 0.99};
    double out[3] = {-1.0, -1.0, -1.0};
    w.quantiles(qs, out, 3);
    EXPECT_DOUBLE_EQ(out[0], w.quantile(0.5));
    EXPECT_DOUBLE_EQ(out[1], w.quantile(0.95));
    EXPECT_DOUBLE_EQ(out[2], w.quantile(0.99));
}

TEST(MovingWindow, BatchQuantilesEdgeCases)
{
    MovingWindow w(SimTime::sec(60));
    // Zero quantiles requested: must not touch the output (and must
    // not pay the copy — the arbiter report path may probe
    // conditionally).
    double sentinel = 42.0;
    w.quantiles(nullptr, &sentinel, 0);
    EXPECT_DOUBLE_EQ(sentinel, 42.0);
    // Empty window: all zeros, no crash.
    const double qs[2] = {0.0, 1.0};
    double out[2] = {-1.0, -1.0};
    w.quantiles(qs, out, 2);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}

/** The full-sort quantiles MovingWindow::quantiles must reproduce. */
std::vector<double>
sortedQuantiles(std::vector<double> values, const std::vector<double> &qs)
{
    std::sort(values.begin(), values.end());
    std::vector<double> out;
    for (const double q : qs) {
        const double rank = q * static_cast<double>(values.size() - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const auto hi = std::min(lo + 1, values.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        out.push_back(values[lo] * (1.0 - frac) + values[hi] * frac);
    }
    return out;
}

TEST(MovingWindow, SelectedQuantilesEqualFullSortBitForBit)
{
    const std::vector<std::vector<double>> qLists = {
        {0.0, 0.5, 0.95, 0.99, 1.0},
        {0.99, 0.0, 1.0, 0.5, 0.95}, // unsorted
        {0.95, 0.95, 0.99, 0.5, 0.99, 0.0, 0.0, 1.0, 1.0}, // repeated
        {0.99},
        {1.0, 0.0},
    };
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 70; ++n)
        sizes.push_back(n);
    for (std::size_t n = 97; n <= 5000; n = n * 3 / 2 + 1)
        sizes.push_back(n);
    sizes.push_back(4372);
    sizes.push_back(5000);

    Rng rng(20261019);
    for (const std::size_t size : sizes) {
        for (const bool duplicates : {false, true}) {
            // The span keeps exactly `size` samples at one per µs; the
            // extra adds slide the window so the ring has wrapped.
            const auto n = static_cast<std::int64_t>(size);
            MovingWindow w(SimTime::usec(n - 1));
            std::vector<double> all;
            const std::size_t total = 2 * size + 5;
            for (std::size_t i = 0; i < total; ++i) {
                const double v = duplicates
                    ? static_cast<double>(rng.uniformInt(0, 3))
                    : rng.uniform(0.0, 1.0);
                all.push_back(v);
                w.add(SimTime::usec(static_cast<std::int64_t>(i)), v);
            }
            ASSERT_EQ(w.size(), size);
            const std::vector<double> live(all.end() - size, all.end());
            for (const auto &qs : qLists) {
                std::vector<double> got(qs.size(), -1.0);
                w.quantiles(qs.data(), got.data(), qs.size());
                const std::vector<double> want = sortedQuantiles(live, qs);
                for (std::size_t i = 0; i < qs.size(); ++i) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                              std::bit_cast<std::uint64_t>(want[i]))
                        << "size " << size << " dup " << duplicates
                        << " q " << qs[i] << ": " << got[i]
                        << " != " << want[i];
                }
            }
        }
    }
}

TEST(MovingWindowDeath, OutOfRangeQuantilePanicsNamingIt)
{
    MovingWindow w(SimTime::sec(10));
    w.add(SimTime::sec(1), 1.0);
    const double high[2] = {0.5, 1.5};
    double out[2];
    EXPECT_DEATH(w.quantiles(high, out, 2), "q=1.5 outside");
    // Checked even on an empty window, where nothing is indexed.
    MovingWindow empty(SimTime::sec(10));
    EXPECT_DEATH((void)empty.quantile(-0.25), "q=-0.25 outside");
}

TEST(TimeSeries, AppendAndSize)
{
    TimeSeries ts("x");
    EXPECT_TRUE(ts.empty());
    ts.append(SimTime::sec(1), 1.0);
    ts.append(SimTime::sec(2), 2.0);
    EXPECT_EQ(ts.size(), 2u);
    EXPECT_EQ(ts.name(), "x");
}

TEST(TimeSeries, MeanOverRange)
{
    TimeSeries ts;
    for (int i = 0; i < 10; ++i)
        ts.append(SimTime::sec(i), static_cast<double>(i));
    // [2, 5) -> values 2, 3, 4.
    EXPECT_DOUBLE_EQ(ts.meanOver(SimTime::sec(2), SimTime::sec(5)), 3.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 4.5);
}

TEST(TimeSeries, ValueAtCarriesLast)
{
    TimeSeries ts;
    ts.append(SimTime::sec(1), 10.0);
    ts.append(SimTime::sec(5), 20.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(SimTime::sec(0)), 0.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(SimTime::sec(3)), 10.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(SimTime::sec(5)), 20.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(SimTime::sec(99)), 20.0);
}

TEST(TimeSeries, ResampleAveragesBuckets)
{
    TimeSeries ts;
    ts.append(SimTime::sec(0), 2.0);
    ts.append(SimTime::sec(1), 4.0);
    ts.append(SimTime::sec(5), 10.0);
    const auto out = ts.resample(SimTime::zero(), SimTime::sec(10), 2);
    ASSERT_EQ(out.size(), 2u);
    // Bucket [0, 5) holds the first two points; [5, 10) holds the third.
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 10.0);
}

TEST(TimeSeries, ResampleCarriesThroughEmptyBuckets)
{
    TimeSeries ts;
    ts.append(SimTime::sec(1), 7.0);
    ts.append(SimTime::sec(9), 9.0);
    const auto out = ts.resample(SimTime::zero(), SimTime::sec(12), 4);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_DOUBLE_EQ(out[0], 7.0);
    EXPECT_DOUBLE_EQ(out[1], 7.0); // empty [3,6): carry forward
    EXPECT_DOUBLE_EQ(out[2], 7.0); // empty [6,9): carry forward
    EXPECT_DOUBLE_EQ(out[3], 9.0); // t=9 lands in [9,12)
}

TEST(TimeSeries, ResampleDegenerateInputs)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.resample(SimTime::zero(), SimTime::sec(1), 0).empty());
    EXPECT_TRUE(
        ts.resample(SimTime::sec(1), SimTime::sec(1), 4).empty());
}

TEST(TimeSeries, CsvOutput)
{
    TimeSeries ts;
    ts.append(SimTime::sec(1), 0.5);
    std::ostringstream out;
    ts.writeCsv(out);
    EXPECT_EQ(out.str(), "1,0.5\n");
}

TEST(TimeSeriesDeath, NonMonotonicAppendPanics)
{
    TimeSeries ts("t");
    ts.append(SimTime::sec(2), 1.0);
    EXPECT_DEATH(ts.append(SimTime::sec(1), 1.0), "non-monotonic");
}

// Property sweep: P2 tracks the exact estimator across quantile levels.
class P2Accuracy : public testing::TestWithParam<double>
{
};

TEST_P(P2Accuracy, WithinToleranceOfExact)
{
    const double q = GetParam();
    P2Quantile p2(q);
    ExactPercentile exact;
    Rng rng(23);
    for (int i = 0; i < 30000; ++i) {
        const double x = rng.lognormal(2.0, 0.4);
        p2.add(x);
        exact.add(x);
    }
    const double truth = exact.quantile(q);
    EXPECT_NEAR(p2.value(), truth, 0.1 * truth);
}

INSTANTIATE_TEST_SUITE_P(QuantileLevels, P2Accuracy,
                         testing::Values(0.25, 0.5, 0.75, 0.9, 0.95,
                                         0.99));

} // namespace
} // namespace pc
