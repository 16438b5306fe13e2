/**
 * @file
 * xoshiro256** implementation and portable distribution transforms.
 */

#include "support/rng.hh"

#include <cmath>
#include <numbers>

#include "support/logging.hh"

namespace rhmd
{

namespace
{

/** splitmix64 step, used for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedGauss_(0.0), hasCachedGauss_(false)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    panic_if(lo > hi, "Rng::range requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::gaussian()
{
    if (hasCachedGauss_) {
        hasCachedGauss_ = false;
        return cachedGauss_;
    }
    double u1 = uniform();
    // Guard against log(0).
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cachedGauss_ = radius * std::sin(angle);
    hasCachedGauss_ = true;
    return radius * std::cos(angle);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        panic_if(w < 0.0, "weightedIndex requires non-negative weights");
        total += w;
    }
    panic_if(total <= 0.0, "weightedIndex requires a positive weight");
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    // Floating-point slop: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::vector<double>
Rng::perturbedSimplex(const std::vector<double> &base, double spread)
{
    std::vector<double> out(base.size());
    double total = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        out[i] = base[i] * std::exp(gaussian() * spread);
        total += out[i];
    }
    panic_if(total <= 0.0, "perturbedSimplex requires positive mass");
    for (double &v : out)
        v /= total;
    return out;
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = below(i);
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

std::uint64_t
SplitRng::seedAt(std::uint64_t index) const
{
    // Two full splitmix64 rounds over (root, index). One round is
    // already a good mixer; the second decorrelates the low bits of
    // adjacent indices before the seed is expanded again by the Rng
    // constructor.
    std::uint64_t x = root_ ^ (index * 0xd1b54a32d192ed03ULL +
                               0x8cb92ba72f3d8dd7ULL);
    x = splitmix64(x);
    return splitmix64(x);
}

} // namespace rhmd
