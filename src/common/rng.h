/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component (load generator, per-service work sampling)
 * owns its own Rng seeded from the scenario seed, so experiments are
 * reproducible bit-for-bit and independent components do not perturb each
 * other's streams when one of them draws more samples.
 */

#ifndef PC_COMMON_RNG_H
#define PC_COMMON_RNG_H

#include <cmath>
#include <cstdint>
#include <random>

namespace pc {

/**
 * The (μ, σ) of a lognormal with a given mean and coefficient of
 * variation, computed once for a distribution that is drawn from many
 * times. Drawing with it gives the same values as Rng::lognormal(mean,
 * cv), which computes the same two expressions on every call.
 */
struct LognormalParams
{
    LognormalParams() = default;

    LognormalParams(double mean, double cv)
    {
        const double sigma2 = std::log(1.0 + cv * cv);
        mu = std::log(mean) - sigma2 / 2.0;
        sigma = std::sqrt(sigma2);
    }

    double mu = 0.0;
    double sigma = 1.0;
};

/** A seeded pseudo-random stream with the distributions the sim needs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Derive an independent child stream (e.g. one per stage). */
    Rng
    fork()
    {
        return Rng(engine_() ^ 0x9e3779b97f4a7c15ull);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Exponential with the given mean (inter-arrival sampling). */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(engine_);
    }

    /** Normal with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /**
     * Lognormal parameterized by its *linear-space* mean and coefficient
     * of variation; convenient for heavy-tailed service times.
     */
    double
    lognormal(double mean, double cv)
    {
        return lognormal(LognormalParams(mean, cv));
    }

    /** Lognormal with precomputed parameters (see LognormalParams). */
    double
    lognormal(const LognormalParams &p)
    {
        return std::lognormal_distribution<double>(p.mu, p.sigma)(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace pc

#endif // PC_COMMON_RNG_H
