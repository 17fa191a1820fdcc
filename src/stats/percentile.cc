#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pc {

void
ExactPercentile::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
ExactPercentile::merge(const ExactPercentile &other)
{
    if (other.samples_.empty())
        return;
    if (&other == this) {
        // Self-merge: inserting from our own range would read
        // iterators invalidated by the growth reallocation (UB).
        // Double the samples by index instead.
        const std::size_t n = samples_.size();
        samples_.reserve(2 * n);
        for (std::size_t i = 0; i < n; ++i)
            samples_.push_back(samples_[i]);
        sorted_ = false;
        return;
    }
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

double
ExactPercentile::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    if (q < 0.0 || q > 1.0)
        panic("quantile %f outside [0,1]", q);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
ExactPercentile::selectQuantile(double q) const
{
    if (sorted_ || samples_.empty())
        return quantile(q);
    if (q < 0.0 || q > 1.0)
        panic("quantile %f outside [0,1]", q);
    const double rank = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), at, samples_.end());
    const double low = *at;
    const double high = hi == lo ? low : *std::min_element(at + 1,
                                                           samples_.end());
    return low * (1.0 - frac) + high * frac;
}

std::size_t
ExactPercentile::countAtOrBelow(double x) const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return static_cast<std::size_t>(
        std::upper_bound(samples_.begin(), samples_.end(), x) -
        samples_.begin());
}

void
ExactPercentile::clear()
{
    samples_.clear();
    sorted_ = true;
}

P2Quantile::P2Quantile(double q) : q_(q)
{
    if (q <= 0.0 || q >= 1.0)
        panic("P2Quantile requires q in (0,1), got %f", q);
    desired_[0] = 1;
    desired_[1] = 1 + 2 * q;
    desired_[2] = 1 + 4 * q;
    desired_[3] = 3 + 2 * q;
    desired_[4] = 5;
    increments_[0] = 0;
    increments_[1] = q / 2;
    increments_[2] = q;
    increments_[3] = (1 + q) / 2;
    increments_[4] = 1;
}

double
P2Quantile::parabolic(int i, double d) const
{
    return heights_[i] +
        d / (positions_[i + 1] - positions_[i - 1]) *
        ((positions_[i] - positions_[i - 1] + d) *
             (heights_[i + 1] - heights_[i]) /
             (positions_[i + 1] - positions_[i]) +
         (positions_[i + 1] - positions_[i] - d) *
             (heights_[i] - heights_[i - 1]) /
             (positions_[i] - positions_[i - 1]));
}

double
P2Quantile::linear(int i, double d) const
{
    const int j = i + static_cast<int>(d);
    return heights_[i] +
        d * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
}

void
P2Quantile::add(double x)
{
    if (count_ < 5) {
        heights_[count_] = x;
        ++count_;
        if (count_ == 5)
            std::sort(heights_, heights_ + 5);
        return;
    }

    int k;
    if (x < heights_[0]) {
        heights_[0] = x;
        k = 0;
    } else if (x >= heights_[4]) {
        heights_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= heights_[k + 1])
            ++k;
    }

    for (int i = k + 1; i < 5; ++i)
        positions_[i] += 1;
    for (int i = 0; i < 5; ++i)
        desired_[i] += increments_[i];

    for (int i = 1; i <= 3; ++i) {
        const double d = desired_[i] - positions_[i];
        if ((d >= 1 && positions_[i + 1] - positions_[i] > 1) ||
            (d <= -1 && positions_[i - 1] - positions_[i] < -1)) {
            const double sign = d >= 0 ? 1.0 : -1.0;
            double candidate = parabolic(i, sign);
            if (heights_[i - 1] < candidate && candidate < heights_[i + 1])
                heights_[i] = candidate;
            else
                heights_[i] = linear(i, sign);
            positions_[i] += sign;
        }
    }
    ++count_;
}

double
P2Quantile::value() const
{
    if (count_ == 0)
        return 0.0;
    if (count_ < 5) {
        // Exact small-sample fallback.
        double buf[5];
        std::copy(heights_, heights_ + count_, buf);
        std::sort(buf, buf + count_);
        const double rank = q_ * static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::size_t>(std::floor(rank));
        const auto hi = static_cast<std::size_t>(std::ceil(rank));
        const double frac = rank - std::floor(rank);
        return buf[lo] * (1.0 - frac) + buf[hi] * frac;
    }
    return heights_[2];
}

} // namespace pc
