/**
 * @file
 * Tests of the deterministic random number generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "support/rng.hh"

namespace
{

using rhmd::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.5);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.5);
    }
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(3);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(rng.below(1), 0u);
}

/** The rejection loop below() ran for every n before its power-of-two path. */
std::uint64_t
rejectionBelow(Rng &rng, std::uint64_t n)
{
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % n;
    }
}

TEST(Rng, BelowMatchesRejectionLoopValueAndDraws)
{
    std::vector<std::uint64_t> bounds;
    for (int k = 0; k < 64; ++k)
        bounds.push_back(std::uint64_t{1} << k);
    // Non-powers of two, including ones that reject often (just
    // above 2^63) and the largest value.
    for (std::uint64_t n : {3ULL, 6ULL, 10ULL, 17ULL, 1000ULL, 18000ULL,
                            (1ULL << 32) + 1, (1ULL << 63) + 1,
                            (1ULL << 63) + (1ULL << 62), ~0ULL})
        bounds.push_back(n);
    for (std::uint64_t n : bounds) {
        Rng rng(n * 31 + 7);
        Rng reference(n * 31 + 7);
        for (int i = 0; i < 64; ++i) {
            ASSERT_EQ(rng.below(n), rejectionBelow(reference, n))
                << "n = " << n << ", draw " << i;
            // Both consumed the same number of raw draws.
            ASSERT_EQ(rng.next(), reference.next()) << "n = " << n;
        }
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(5);
    constexpr std::size_t buckets = 10;
    std::vector<std::size_t> counts(buckets, 0);
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(buckets)];
    for (std::size_t c : counts) {
        EXPECT_NEAR(static_cast<double>(c), n / 10.0,
                    5.0 * std::sqrt(n / 10.0));
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, RangeSingleton)
{
    Rng rng(12);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.range(7, 7), 7);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(14);
    int hits = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(15);
    double sum = 0.0;
    double sumsq = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(16);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(19);
    const std::vector<double> weights{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    constexpr int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(Rng, WeightedIndexSingleEntry)
{
    Rng rng(20);
    const std::vector<double> weights{2.5};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.weightedIndex(weights), 0u);
}

TEST(Rng, PerturbedSimplexIsNormalized)
{
    Rng rng(21);
    const std::vector<double> base{0.2, 0.3, 0.5};
    for (int i = 0; i < 100; ++i) {
        const auto v = rng.perturbedSimplex(base, 0.4);
        double total = 0.0;
        for (double x : v) {
            ASSERT_GE(x, 0.0);
            total += x;
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(Rng, PerturbedSimplexZeroSpreadIsIdentity)
{
    Rng rng(22);
    const std::vector<double> base{0.1, 0.9};
    const auto v = rng.perturbedSimplex(base, 0.0);
    EXPECT_NEAR(v[0], 0.1, 1e-12);
    EXPECT_NEAR(v[1], 0.9, 1e-12);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(23);
    const auto perm = rng.permutation(100);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(perm.size(), 100u);
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationEmpty)
{
    Rng rng(24);
    EXPECT_TRUE(rng.permutation(0).empty());
}

/** Uniformity across many seeds (property sweep). */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds)
{
    Rng rng(GetParam());
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.015);
}

TEST_P(RngSeedSweep, BitsLookBalanced)
{
    Rng rng(GetParam());
    int ones = 0;
    constexpr int n = 2000;
    for (int i = 0; i < n; ++i)
        ones += __builtin_popcountll(rng.next());
    EXPECT_NEAR(ones / (64.0 * n), 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL,
                                           0xdeadbeefULL,
                                           0xffffffffffffffffULL));

} // namespace
