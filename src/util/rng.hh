/**
 * @file
 * Deterministic pseudo-random number generation for workloads and tests.
 *
 * All randomness in this repository flows through Rng so that every
 * experiment is exactly reproducible from its seed. The core generator is
 * xoshiro256** (public domain, Blackman & Vigna), which is fast, has a
 * 256-bit state, and passes BigCrush.
 */

#ifndef PIM_UTIL_RNG_HH
#define PIM_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pim::util {

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Seeding uses splitmix64 to expand a single 64-bit seed into the
 * 256-bit state, as recommended by the xoshiro authors.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. The same seed yields the same stream. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t uniformInt(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    uint64_t uniformRange(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Sample from a lognormal distribution with the given parameters of
     * the underlying normal (mu, sigma). Used for ShareGPT-like sequence
     * length modelling.
     */
    double logNormal(double mu, double sigma);

    /** Standard normal via Box-Muller (one value per call, no caching). */
    double normal();

    /** Exponential with the given rate (mean 1/rate). @pre rate > 0. */
    double exponential(double rate);

    /**
     * Zipf-like integer in [0, n) with exponent s: one draw of
     * ZipfSampler(n, s). A loop drawing many values builds the sampler
     * once instead.
     */
    uint64_t zipf(uint64_t n, double s);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        if (v.empty()) return;
        for (size_t i = v.size() - 1; i > 0; --i) {
            size_t j = uniformInt(i + 1);
            std::swap(v[i], v[j]);
        }
    }

    /**
     * Derive the independent named sub-stream @p name without advancing
     * this generator: the child's state is a pure function of this
     * generator's current state and the name. Calling stream() on a
     * freshly seeded root therefore gives every subsystem
     * ("fault/rank-fail", "arrivals", "graph/degrees") a stable stream
     * of its own — drawing more or fewer values from one stream, or
     * adding a new stream, never shifts the values another stream
     * produces, unlike sharing one generator whose draws happen in a
     * knob-dependent order.
     */
    Rng stream(const std::string &name) const;

  private:
    uint64_t s_[4];
};

/**
 * Zipf-like integers in [0, n) with exponent s, used by the synthetic
 * power-law graph generator. Inverse-CDF against the continuous bounded
 * Pareto approximation of the Zipf distribution (rejection-free, one
 * uniform draw per value), adequate for workload shaping. The harmonic
 * normaliser is computed once, at construction.
 */
class ZipfSampler
{
  public:
    ZipfSampler(uint64_t n, double s);

    /** Next value, drawn from @p rng. */
    uint64_t operator()(Rng &rng) const;

  private:
    uint64_t n_;
    double oneMinusS_;
    double hN_;
};

} // namespace pim::util

#endif // PIM_UTIL_RNG_HH
