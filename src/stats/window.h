/**
 * @file
 * Time-based moving window of samples.
 *
 * The bottleneck identifier computes q̄ᵢ and s̄ᵢ over "a moving time
 * window" (paper §4.2); this container holds timestamped samples, evicts
 * ones older than the span, and answers mean/max/quantile queries over
 * what remains.
 *
 * Storage is a power-of-two ring buffer, not a deque: a sliding deque
 * allocates a fresh block for every block's worth of samples forever,
 * while the ring reaches its high-water capacity once and then slides
 * allocation-free. The per-completion observe() path in
 * core/bottleneck.cc runs millions of times per mega-scenario, and
 * tests/test_sim_alloc.cc pins its steady state at zero allocations.
 */

#ifndef PC_STATS_WINDOW_H
#define PC_STATS_WINDOW_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/time.h"

namespace pc {

class MovingWindow
{
  public:
    explicit MovingWindow(SimTime span) : span_(span) {}

    SimTime span() const { return span_; }

    /** Record a sample observed at time @p t (non-decreasing order). */
    void
    add(SimTime t, double value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[wrap(head_ + count_)] = Sample{t, value};
        ++count_;
        evict(t);
    }

    /** Drop samples older than @p now - span. */
    void
    evict(SimTime now)
    {
        const SimTime cutoff = now - span_;
        while (count_ != 0 && buf_[head_].t < cutoff) {
            head_ = wrap(head_ + 1);
            --count_;
        }
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    double
    mean() const
    {
        if (count_ == 0)
            return 0.0;
        double sum = 0.0;
        for (std::size_t i = 0; i < count_; ++i)
            sum += buf_[wrap(head_ + i)].value;
        return sum / static_cast<double>(count_);
    }

    double
    max() const
    {
        double best = 0.0;
        for (std::size_t i = 0; i < count_; ++i)
            best = std::max(best, buf_[wrap(head_ + i)].value);
        return best;
    }

    /** Exact quantile over the retained window (q in [0,1]). */
    double
    quantile(double q) const
    {
        double out;
        quantiles(&q, &out, 1);
        return out;
    }

    /**
     * @p n exact quantiles with ONE copy of the window — the health
     * taps read p95 and p99 of the same window every control interval.
     * No full sort: only the order statistics the interpolation reads
     * (ranks lo and lo+1 per quantile) are selected, by nth_element on
     * successive suffixes of the copy, so each selected slot holds
     * exactly what a sort would have put there and the results are
     * bit-identical to sorting. Empty windows yield all zeros; a q
     * outside [0,1] panics. The scratch buffers are reused across calls
     * (single-writer, like every stats container here).
     */
    void
    quantiles(const double *qs, double *out, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (!(qs[i] >= 0.0 && qs[i] <= 1.0))
                panic("MovingWindow::quantiles: q=%g outside [0, 1]",
                      qs[i]);
        }
        // Asking for zero quantiles must not pay the copy (the cluster
        // arbiter's report path may probe conditionally).
        if (n == 0)
            return;
        if (count_ == 0) {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = 0.0;
            return;
        }
        scratch_.clear();
        scratch_.reserve(count_);
        for (std::size_t i = 0; i < count_; ++i)
            scratch_.push_back(buf_[wrap(head_ + i)].value);
        const std::size_t last = count_ - 1;
        ranks_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const auto lo = static_cast<std::size_t>(
                qs[i] * static_cast<double>(last));
            ranks_.push_back(lo);
            ranks_.push_back(std::min(lo + 1, last));
        }
        std::sort(ranks_.begin(), ranks_.end());
        // Every slot before `from` is already a final order statistic
        // and no larger than anything after it.
        std::size_t from = 0;
        for (const std::size_t r : ranks_) {
            if (r < from)
                continue;
            std::nth_element(scratch_.begin() + from, scratch_.begin() + r,
                             scratch_.end());
            from = r + 1;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double rank = qs[i] * static_cast<double>(last);
            const auto lo = static_cast<std::size_t>(rank);
            const auto hi = std::min(lo + 1, last);
            const double frac = rank - static_cast<double>(lo);
            out[i] = scratch_[lo] * (1.0 - frac) + scratch_[hi] * frac;
        }
    }

  private:
    struct Sample
    {
        SimTime t;
        double value;
    };

    /** Index into the power-of-two ring (capacity 0 never reaches here:
     *  add() grows before the first write). */
    std::size_t
    wrap(std::size_t i) const
    {
        return i & (buf_.size() - 1);
    }

    /** Double the ring, linearizing live samples to the front. */
    void
    grow()
    {
        const std::size_t newCap = buf_.empty() ? 8 : buf_.size() * 2;
        std::vector<Sample> next(newCap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = buf_[wrap(head_ + i)];
        buf_ = std::move(next);
        head_ = 0;
    }

    SimTime span_;
    std::vector<Sample> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    /** Reusable quantile buffers (see quantiles()). */
    mutable std::vector<double> scratch_;
    mutable std::vector<std::size_t> ranks_;
};

} // namespace pc

#endif // PC_STATS_WINDOW_H
