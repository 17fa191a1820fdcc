/**
 * @file
 * Percentile estimators.
 *
 * ExactPercentile stores every sample and answers any quantile exactly —
 * the right tool at our experiment scale (≤ millions of samples).
 * P2Quantile is the constant-space P² estimator used where an unbounded
 * buffer would be inappropriate (per-instance moving statistics held by
 * the command center for long runs).
 */

#ifndef PC_STATS_PERCENTILE_H
#define PC_STATS_PERCENTILE_H

#include <cstddef>
#include <vector>

namespace pc {

/** Exact quantiles over a retained sample buffer. */
class ExactPercentile
{
  public:
    void add(double x);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Quantile via linear interpolation between closest ranks.
     * @param q in [0, 1]; q=0.99 is the paper's tail metric.
     */
    double quantile(double q) const;

    double p99() const { return quantile(0.99); }
    double median() const { return quantile(0.5); }

    /**
     * The same value as quantile(@p q), found by selection instead of
     * a sort: std::nth_element places the low rank, and the high rank
     * is the minimum of the part above it. O(n) for a reader that
     * takes one quantile of the buffer; a reader that takes several
     * should call quantile(), which sorts once. The buffer is left
     * partitioned, and later calls of either kind still answer exactly.
     */
    double selectQuantile(double q) const;

    /**
     * Samples with value <= @p x — the cumulative count behind the
     * histogram bucket serialization (obs/metrics.h).
     */
    std::size_t countAtOrBelow(double x) const;

    /**
     * Absorb another estimator's samples (sharded-run merge). Exact:
     * quantiles over the union are identical no matter how the samples
     * were split across the sources.
     */
    void merge(const ExactPercentile &other);

    void clear();

    /** Room for @p n samples in all. */
    void reserve(std::size_t n) { samples_.reserve(n); }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * The P² (Jain & Chlamtac) single-quantile streaming estimator.
 * Maintains five markers; O(1) memory and update time.
 */
class P2Quantile
{
  public:
    explicit P2Quantile(double q);

    void add(double x);

    std::size_t count() const { return count_; }

    /**
     * Current estimate. Exact while fewer than five samples have been
     * observed (falls back to the sorted buffer).
     */
    double value() const;

  private:
    double parabolic(int i, double d) const;
    double linear(int i, double d) const;

    double q_;
    std::size_t count_ = 0;
    double heights_[5] = {0, 0, 0, 0, 0};
    double positions_[5] = {1, 2, 3, 4, 5};
    double desired_[5] = {0, 0, 0, 0, 0};
    double increments_[5] = {0, 0, 0, 0, 0};
};

} // namespace pc

#endif // PC_STATS_PERCENTILE_H
