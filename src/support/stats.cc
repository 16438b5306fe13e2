/**
 * @file
 * Statistics helper implementations.
 */

#include "support/stats.hh"

#include <cmath>
#include <limits>

#include "support/logging.hh"

namespace rhmd
{

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
dot(const double *a, const double *b, std::size_t n)
{
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += a[i] * b[i];
    return total;
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    panic_if(a.size() != b.size(), "dot: size mismatch ", a.size(),
             " vs ", b.size());
    return dot(a.data(), b.data(), a.size());
}

double
norm(const std::vector<double> &v)
{
    return std::sqrt(dot(v, v));
}

void
axpy(double *a, double scale, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += scale * b[i];
}

void
axpy(std::vector<double> &a, double scale, const std::vector<double> &b)
{
    panic_if(a.size() != b.size(), "axpy: size mismatch ", a.size(),
             " vs ", b.size());
    axpy(a.data(), scale, b.data(), a.size());
}

void
normalizeInPlace(std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    if (total == 0.0)
        return;
    for (double &x : v)
        x /= total;
}

double
chiSquared(const std::vector<std::size_t> &observed,
           const std::vector<double> &expected_probs)
{
    panic_if(observed.size() != expected_probs.size(),
             "chiSquared: size mismatch");
    std::size_t total = 0;
    for (std::size_t c : observed)
        total += c;
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double expected =
            expected_probs[i] * static_cast<double>(total);
        if (expected <= 0.0)
            continue;
        const double diff = static_cast<double>(observed[i]) - expected;
        stat += diff * diff / expected;
    }
    return stat;
}

} // namespace rhmd
