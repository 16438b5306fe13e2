/**
 * @file
 * Tests of the support utilities: statistics helpers and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/parse.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace
{

using namespace rhmd;

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, MatchesDirectComputation)
{
    RunningStats s;
    const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
    for (double x : xs)
        s.add(x);
    EXPECT_NEAR(s.mean(), 6.2, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(37.2), 1e-12);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 16.0);
}

TEST(RunningStats, KnownVariance)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(VectorStats, DotAndNorm)
{
    EXPECT_NEAR(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0, 1e-12);
    EXPECT_NEAR(norm({3.0, 4.0}), 5.0, 1e-12);
}

TEST(VectorStats, Axpy)
{
    std::vector<double> a{1.0, 2.0};
    axpy(a, 2.0, {10.0, 20.0});
    EXPECT_NEAR(a[0], 21.0, 1e-12);
    EXPECT_NEAR(a[1], 42.0, 1e-12);
}

TEST(VectorStats, NormalizeInPlace)
{
    std::vector<double> v{1.0, 3.0};
    normalizeInPlace(v);
    EXPECT_NEAR(v[0], 0.25, 1e-12);
    EXPECT_NEAR(v[1], 0.75, 1e-12);

    std::vector<double> zeros{0.0, 0.0};
    normalizeInPlace(zeros);  // must not divide by zero
    EXPECT_EQ(zeros[0], 0.0);
}

TEST(VectorStats, ChiSquaredUniformFit)
{
    // Perfectly matching counts give statistic 0.
    EXPECT_NEAR(chiSquared({25, 25, 25, 25}, {0.25, 0.25, 0.25, 0.25}),
                0.0, 1e-12);
    // A known lopsided case: observed (30, 70), expected (50, 50):
    // (20^2)/50 + (20^2)/50 = 16.
    EXPECT_NEAR(chiSquared({30, 70}, {0.5, 0.5}), 16.0, 1e-12);
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
    EXPECT_EQ(Table::cell(2.0, 0), "2");
    EXPECT_EQ(Table::percent(0.9716), "97.2%");
    EXPECT_EQ(Table::percent(0.5, 0), "50%");
}

TEST(ParseUnsigned, AcceptsOnlyAWholeUnsignedNumber)
{
    std::uint64_t value = 7;
    for (const char *bad : {"", "abc", "4x", "-1", "+1", " 1", "0x",
                            "18446744073709551616"})
        EXPECT_FALSE(support::parseUnsigned(bad, value)) << bad;
    EXPECT_EQ(value, 7u);
    std::uint32_t narrow = 0;
    EXPECT_FALSE(support::parseUnsigned("4294967296", narrow));
    EXPECT_TRUE(support::parseUnsigned("42", value));
    EXPECT_EQ(value, 42u);
    EXPECT_TRUE(support::parseUnsigned("0x10", value));
    EXPECT_EQ(value, 16u);
}

TEST(ParseDouble, AcceptsOnlyAWholeFiniteNumber)
{
    double value = 7.0;
    for (const char *bad :
         {"", "abc", "3x", " 1", "1 ", "inf", "-inf", "nan", "1e999"})
        EXPECT_FALSE(support::parseDouble(bad, value)) << bad;
    EXPECT_EQ(value, 7.0);
    EXPECT_TRUE(support::parseDouble("0.25", value));
    EXPECT_EQ(value, 0.25);
    EXPECT_TRUE(support::parseDouble("-2e-1", value));
    EXPECT_EQ(value, -0.2);
}

} // namespace
