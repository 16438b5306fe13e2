/**
 * @file
 * Output checks: bit-exact digests of what each rep produced, and the
 * run-level verdict built from them.
 *
 * Every rep's outputs are folded into one 64-bit FNV-1a digest. The
 * first kCheckedReps digests of a run, in rep order, are chained into
 * the run digest. After the timed loop those reps are replayed from
 * scratch and must reproduce the same digests (determinism), and on
 * the default seed the run digest must equal the golden recorded in
 * check.cc. Rep inputs are a pure function of (seed, rep index), so
 * the checked prefix is identical in every run of a seed whatever its
 * length.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "features/corpus.hh"
#include "uarch/perf_counters.hh"

namespace perfbench
{

/** The seed a run uses when --seed is not given; goldens exist for it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Incremental FNV-1a 64 over little-endian 64-bit words. The benchmark
 * keeps its own copy so the goldens never move with the library's
 * hashing helpers.
 */
class Digest
{
  public:
    void u64(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    /** Bit pattern of @p value, so -0.0 and NaN payloads count. */
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Every field of one window, bit-exact. */
void digestWindow(Digest &digest, const rhmd::features::RawWindow &window);

/** Every window of every period of one program, periods ascending. */
void digestProgram(Digest &digest,
                   const rhmd::features::ProgramFeatures &program);

/** Simulated event totals over some windows (the uarch statistics). */
struct UarchTotals
{
    std::uint64_t insts = 0;
    double cycles = 0.0;
    rhmd::uarch::EventCounts events{};

    /** Add the windows of @p program at @p period (whole trace). */
    void add(const rhmd::features::ProgramFeatures &program,
             std::uint32_t period);
    void add(const UarchTotals &other);
    void digest(Digest &digest) const;
};

/** One served request's answer, as the output check sees it. */
struct ServedDecision
{
    std::uint64_t key = 0;
    bool ok = false;              ///< false: shed or error
    std::vector<int> decisions;   ///< per classified epoch
    int programDecision = 0;
};

/**
 * Digest of one serve rep: every request's key, status and decisions
 * in submission order, then the classified-epoch and malware-flagged
 * counts.
 */
std::uint64_t digestServeRep(const std::vector<ServedDecision> &requests);

/** Chain rep digests, in rep order, into one run digest. */
std::uint64_t chainDigests(const std::vector<std::uint64_t> &rep_digests);

/** The golden run digest of @p workload on @p seed, if one exists. */
std::optional<std::uint64_t> goldenDigest(std::string_view workload,
                                          std::uint64_t seed);

/** The run-level verdict of the output checks. */
struct RunCheck
{
    std::uint64_t digest = 0;     ///< chain of the timed reps' digests
    bool replayMatches = false;   ///< replayed reps reproduced them
    bool goldenChecked = false;   ///< a golden exists for this seed
    bool goldenMatches = false;

    bool ok() const
    {
        return replayMatches && (!goldenChecked || goldenMatches);
    }
};

/**
 * Judge a run: @p timed are the first checked reps' digests from the
 * timed loop, @p replayed the same reps recomputed afterwards.
 */
RunCheck checkRun(std::string_view workload, std::uint64_t seed,
                  const std::vector<std::uint64_t> &timed,
                  const std::vector<std::uint64_t> &replayed);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
