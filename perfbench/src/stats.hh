/**
 * @file
 * Best-rep statistics over a run's reps, nearest-rank percentiles,
 * and the strict numeric flag parsing of the benchmark CLI.
 *
 * Why the best rep: on a shared virtual host the same code runs at
 * very different speeds from one stretch of seconds to the next, and
 * fast stretches can be rare, so a within-run median or low percentile
 * inherits the host's phase. The fastest rep of a run repeats across
 * runs best; NOTES.md records the evidence.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench
{

/**
 * Index of the smallest value (the fastest rep when values are
 * times). Ties resolve to the earliest index, so the choice is
 * deterministic. Requires a non-empty sample.
 */
std::size_t bestIndex(const std::vector<double> &values);

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of an ascending sample:
 * the value at rank ceil(p/100 * n). Returns nullopt when fewer than
 * @p min_beyond samples lie strictly after that rank, i.e. when the
 * sample is too small to support the percentile.
 */
std::optional<double> percentile(const std::vector<double> &sorted,
                                 double p, std::size_t min_beyond = 10);

/** Samples lying after the nearest-rank position of @p p in @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Parse a non-negative decimal integer. The whole string must be
 * digits: no sign, no whitespace, no trailing garbage, no overflow.
 */
std::optional<std::uint64_t> parseU64(std::string_view text);

/** Parse a finite positive decimal number, whole string only. */
std::optional<double> parsePositive(std::string_view text);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
