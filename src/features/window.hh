/**
 * @file
 * Raw per-window measurements collected over one detection period.
 *
 * A "window" is the paper's collection period: a fixed number of
 * committed instructions (typically 10K) over which the monitoring
 * hardware accumulates counts, after which the detector classifies
 * and the counters restart. RawWindow keeps everything all three
 * feature families need, so one execution pass serves any
 * feature/period combination.
 */

#ifndef RHMD_FEATURES_WINDOW_HH
#define RHMD_FEATURES_WINDOW_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "trace/isa.hh"
#include "uarch/perf_counters.hh"

namespace rhmd::features
{

/** Number of address-delta histogram bins (log2 magnitude). */
constexpr std::size_t kNumMemBins = 20;

/**
 * Bin index of the distance between two consecutive data addresses:
 * bin 0 is delta 0, bin k covers [2^(k-1), 2^k) for k >= 1, with the
 * final bin absorbing everything larger.
 */
inline std::size_t
memDeltaBin(std::uint64_t prev_addr, std::uint64_t addr)
{
    const std::uint64_t delta =
        addr > prev_addr ? addr - prev_addr : prev_addr - addr;
    // bit_width(0) == 0 is bin 0; otherwise 1 + floor(log2(delta)).
    const std::size_t bin = static_cast<std::size_t>(std::bit_width(delta));
    return bin < kNumMemBins ? bin : kNumMemBins - 1;
}

/** Raw measurements of one collection window. */
struct RawWindow
{
    /** Committed-instruction histogram by opcode class. */
    std::array<std::uint32_t, trace::kNumOpClasses> opcodeCounts{};

    /** Consecutive-access address-delta histogram. */
    std::array<std::uint32_t, kNumMemBins> memDeltaBins{};

    /** Architectural event counts. */
    uarch::EventCounts events{};

    /** Window length in committed instructions. */
    std::uint64_t instCount = 0;

    /** Estimated cycles the window took (CPI model). */
    double cycles = 0.0;

    /** Fraction of this window's instructions that were injected. */
    double injectedFrac = 0.0;

    /**
     * True when this is a partial tail window emitted by
     * FeatureSession::finish() (instCount < the collection period).
     * Full windows from the paper's steady-state methodology are
     * never truncated.
     */
    bool truncated = false;
};

} // namespace rhmd::features

#endif // RHMD_FEATURES_WINDOW_HH
