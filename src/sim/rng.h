/**
 * @file
 * Deterministic random number generation for workload models.
 *
 * Wraps a 64-bit Mersenne Twister with the distributions the workload
 * generators need. Keeping one generator per Simulation makes runs
 * reproducible from the seed alone.
 */

#ifndef APC_SIM_RNG_H
#define APC_SIM_RNG_H

#include <cmath>
#include <cstdint>
#include <random>

namespace apc::sim {

/** Simulation random source with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : gen_(seed) {}

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(gen_);
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
    }

    /** Exponential with the given mean (not rate). */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(gen_);
    }

    /**
     * Log-normal parameterized by the mean and sigma of the *resulting*
     * distribution's logarithm scale: lognormal(m, s) has median exp(m).
     */
    double
    lognormal(double log_mean, double log_sigma)
    {
        return std::lognormal_distribution<double>(log_mean,
                                                   log_sigma)(gen_);
    }

    /**
     * Log-normal chosen to have arithmetic mean @p mean with shape
     * @p log_sigma. Convenient for "mean service time = X" workloads.
     */
    double
    lognormalWithMean(double mean, double log_sigma)
    {
        const double mu = std::log(mean) - 0.5 * log_sigma * log_sigma;
        return lognormal(mu, log_sigma);
    }

    /** Bernoulli with probability @p p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Normal distribution. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(gen_);
    }

    /** Access the raw engine (for std distributions not wrapped here). */
    std::mt19937_64 &engine() { return gen_; }

  private:
    std::mt19937_64 gen_;
};

} // namespace apc::sim

#endif // APC_SIM_RNG_H
