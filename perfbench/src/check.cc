/**
 * @file
 * Output digests and goldens.
 */

#include "check.hh"

#include <utility>

namespace perfbench
{

void
digestWindow(Digest &digest, const rhmd::features::RawWindow &window)
{
    for (std::uint32_t count : window.opcodeCounts)
        digest.u64(count);
    for (std::uint32_t bin : window.memDeltaBins)
        digest.u64(bin);
    for (std::uint64_t event : window.events)
        digest.u64(event);
    digest.u64(window.instCount);
    digest.f64(window.cycles);
    digest.f64(window.injectedFrac);
    digest.u64(window.truncated ? 1 : 0);
}

void
digestProgram(Digest &digest, const rhmd::features::ProgramFeatures &program)
{
    digest.u64(program.malware ? 1 : 0);
    digest.u64(program.family);
    for (const auto &[period, windows] : program.byPeriod) {
        digest.u64(period);
        digest.u64(windows.size());
        for (const rhmd::features::RawWindow &window : windows)
            digestWindow(digest, window);
    }
}

void
UarchTotals::add(const rhmd::features::ProgramFeatures &program,
                 std::uint32_t period)
{
    for (const rhmd::features::RawWindow &window : program.windows(period)) {
        insts += window.instCount;
        cycles += window.cycles;
        for (std::size_t e = 0; e < events.size(); ++e)
            events[e] += window.events[e];
    }
}

void
UarchTotals::add(const UarchTotals &other)
{
    insts += other.insts;
    cycles += other.cycles;
    for (std::size_t e = 0; e < events.size(); ++e)
        events[e] += other.events[e];
}

void
UarchTotals::digest(Digest &digest) const
{
    digest.u64(insts);
    digest.f64(cycles);
    for (std::uint64_t event : events)
        digest.u64(event);
}

std::uint64_t
digestServeRep(const std::vector<ServedDecision> &requests)
{
    Digest digest;
    std::uint64_t classified = 0;
    std::uint64_t flagged = 0;
    for (const ServedDecision &request : requests) {
        digest.u64(request.key);
        digest.u64(request.ok ? 1 : 0);
        digest.u64(request.decisions.size());
        for (int decision : request.decisions)
            digest.u64(static_cast<std::uint64_t>(decision));
        digest.u64(static_cast<std::uint64_t>(request.programDecision));
        classified += request.decisions.size();
        flagged += request.ok && request.programDecision == 1 ? 1 : 0;
    }
    digest.u64(classified);
    digest.u64(flagged);
    return digest.value();
}

std::uint64_t
chainDigests(const std::vector<std::uint64_t> &rep_digests)
{
    Digest digest;
    digest.u64(rep_digests.size());
    for (std::uint64_t rep : rep_digests)
        digest.u64(rep);
    return digest.value();
}

std::optional<std::uint64_t>
goldenDigest(std::string_view workload, std::uint64_t seed)
{
    // Recorded from the default-seed run of each workload. A change
    // that alters any simulated window, trained model, rewrite or
    // served decision changes these; a pure speed-up must not.
    static const std::pair<const char *, std::uint64_t> kGoldens[] = {
        {"simulate", 0xf56b5c410468492eULL},
        {"evade_retrain", 0xe5f535b7534829c4ULL},
        {"serve", 0xd6a23595a43d1735ULL},
    };
    if (seed != kDefaultSeed)
        return std::nullopt;
    for (const auto &[name, digest] : kGoldens) {
        if (workload == name)
            return digest;
    }
    return std::nullopt;
}

RunCheck
checkRun(std::string_view workload, std::uint64_t seed,
         const std::vector<std::uint64_t> &timed,
         const std::vector<std::uint64_t> &replayed)
{
    RunCheck check;
    check.digest = chainDigests(timed);
    check.replayMatches = !timed.empty() && timed == replayed;
    if (const std::optional<std::uint64_t> golden =
            goldenDigest(workload, seed)) {
        check.goldenChecked = true;
        check.goldenMatches = *golden == check.digest;
    }
    return check;
}

} // namespace perfbench
