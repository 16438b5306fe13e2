/**
 * @file
 * Benchmark statistics and flag parsing.
 */

#include "stats.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of percentile @p p in a sample of @p n. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::size_t
bestIndex(const std::vector<double> &values)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < values.size(); ++i) {
        if (values[i] < values[best])
            best = i;
    }
    return best;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
percentile(const std::vector<double> &sorted, double p,
           std::size_t min_beyond)
{
    if (sorted.empty() || !(p > 0.0 && p <= 100.0) ||
        samplesBeyond(sorted.size(), p) < min_beyond)
        return std::nullopt;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        return std::nullopt;
    const std::string copy(text);
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
    if (errno == ERANGE || end != copy.c_str() + copy.size())
        return std::nullopt;
    return static_cast<std::uint64_t>(value);
}

std::optional<double>
parsePositive(std::string_view text)
{
    if (text.empty() || text.front() == ' ' || text.front() == '\t')
        return std::nullopt;
    const std::string copy(text);
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(copy.c_str(), &end);
    if (errno == ERANGE || end != copy.c_str() + copy.size() ||
        !std::isfinite(value) || value <= 0.0)
        return std::nullopt;
    return value;
}

} // namespace perfbench
