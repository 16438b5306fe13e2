/**
 * @file
 * Deterministic pseudo-random number generation for the RHMD library.
 *
 * Every stochastic component of the library (program generators, the
 * CFG interpreter, classifier initialization, the RHMD detector
 * switch) draws from an explicitly seeded Rng so that experiments are
 * reproducible run-to-run and machine-to-machine. The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 256-bit state,
 * and passes BigCrush; we avoid std::mt19937 because its distribution
 * adapters are not portable across standard library implementations.
 */

#ifndef RHMD_SUPPORT_RNG_HH
#define RHMD_SUPPORT_RNG_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace rhmd
{

/**
 * Seeded xoshiro256** generator with portable distribution helpers.
 *
 * The helpers implement their own uniform/normal/etc. transforms so a
 * given seed produces the identical stream on every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in [0, n). Requires n > 0; unbiased. A power
     * of two takes one draw; other n reject draws below 2^64 mod n.
     */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Standard normal via Box-Muller (cached pair). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Sample an index from an unnormalized non-negative weight
     * vector. Requires at least one strictly positive weight.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /**
     * Symmetric Dirichlet-like perturbation: returns a probability
     * vector obtained by jittering @p base multiplicatively with
     * exp(gaussian * spread) noise and renormalizing. Used by the
     * program generator to individualize family profiles.
     */
    std::vector<double> perturbedSimplex(const std::vector<double> &base,
                                         double spread);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedGauss_;
    bool hasCachedGauss_;
};

/**
 * Stateless per-task stream derivation for parallel loops.
 *
 * A stream drawn from a shared parent generator would depend on how
 * many draws happened before it — i.e. on iteration order, which a
 * thread pool must be free to ignore. SplitRng instead derives task
 * i's seed purely from (root seed, i) with two rounds of
 * splitmix64-style mixing, so stream i is the same no matter which
 * thread materializes it or when; an N-thread loop is bit-identical
 * to the 1-thread loop. Streams for distinct indices are independent
 * to the quality of the mixer (validated by the chi-square test in
 * tests/test_parallel.cc).
 */
class SplitRng
{
  public:
    explicit SplitRng(std::uint64_t root) : root_(root) {}

    /** The derived 64-bit seed of stream @p index. */
    std::uint64_t seedAt(std::uint64_t index) const;

    /** A fresh generator positioned at the start of stream @p index. */
    Rng at(std::uint64_t index) const { return Rng(seedAt(index)); }

  private:
    std::uint64_t root_;
};

// The per-draw members are defined here so the simulation loop
// (trace::Executor::run) inlines them.

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 random bits scaled into [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline std::uint64_t
Rng::below(std::uint64_t n)
{
    panic_if(n == 0, "Rng::below(0) is undefined");
    // A power of two divides 2^64, so the rejection threshold below
    // is 0, every draw is accepted, and r % n is the low bits of r.
    if ((n & (n - 1)) == 0)
        return next() & (n - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace rhmd

#endif // RHMD_SUPPORT_RNG_HH
