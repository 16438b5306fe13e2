/**
 * @file
 * Self-tests of the benchmark's own machinery: the best-rep and
 * percentile helpers, the output check, span attribution, and strict
 * flag parsing. Run with `python3 perfbench/run.py --selftest`; exits
 * non-zero on the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>

#include "check.hh"
#include "spans.hh"
#include "stats.hh"

namespace
{

using namespace perfbench;

int checks = 0;

void
expect(bool condition, const char *what, int line)
{
    ++checks;
    if (!condition) {
        std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
        std::exit(1);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

void
testBestIndex()
{
    EXPECT(bestIndex({5.0}) == 0);
    EXPECT(bestIndex({3.0, 1.0, 2.0}) == 1);
    // Ties resolve to the earliest rep.
    EXPECT(bestIndex({2.0, 1.0, 1.0, 1.0}) == 1);
    EXPECT(bestIndex({1.0, 1.0}) == 0);
}

void
testMedian()
{
    EXPECT(median({4.0}) == 4.0);
    EXPECT(median({3.0, 1.0}) == 2.0);
    EXPECT(median({5.0, 1.0, 3.0}) == 3.0);
    EXPECT(median({2.0, 2.0, 9.0, 2.0}) == 2.0);
}

void
testPercentile()
{
    // Nearest rank: p50 of 1..20 is the 10th value, with 10 beyond.
    EXPECT(percentile(ramp(20), 50.0) == 10.0);
    EXPECT(samplesBeyond(20, 50.0) == 10);
    EXPECT(!percentile(ramp(19), 50.0));
    // p99 needs n >= 1000 for ten samples beyond it.
    EXPECT(samplesBeyond(1000, 99.0) == 10);
    EXPECT(percentile(ramp(1000), 99.0) == 990.0);
    EXPECT(samplesBeyond(999, 99.0) == 9);
    EXPECT(!percentile(ramp(999), 99.0));
    EXPECT(percentile(ramp(4096), 99.0) == 4056.0);
    EXPECT(samplesBeyond(4096, 99.0) == 40);
    // Small samples and degenerate inputs.
    EXPECT(!percentile({}, 50.0));
    EXPECT(percentile({7.0}, 100.0, 0) == 7.0);
    EXPECT(!percentile({7.0}, 50.0));
    EXPECT(!percentile(ramp(100), 0.0, 0));
    EXPECT(!percentile(ramp(100), 101.0, 0));
    // Ties: a flat run of equal values returns that value.
    std::vector<double> tied(30, 4.0);
    tied.push_back(9.0);
    EXPECT(percentile(tied, 50.0) == 4.0);
    EXPECT(percentile(tied, 60.0) == 4.0);
}

void
testParsing()
{
    EXPECT(parseU64("0") == 0U);
    EXPECT(parseU64("42") == 42U);
    EXPECT(parseU64("18446744073709551615") ==
           std::numeric_limits<std::uint64_t>::max());
    for (const char *bad : {"", "42x", "4 2", " 42", "42 ", "-1", "+1",
                            "0x10", "1e3", "18446744073709551616"})
        EXPECT(!parseU64(bad));
    EXPECT(parsePositive("10") == 10.0);
    EXPECT(parsePositive("2.5") == 2.5);
    for (const char *bad : {"", "0", "-1", "10s", " 10", "nan", "inf"})
        EXPECT(!parsePositive(bad));
}

rhmd::features::ProgramFeatures
sampleProgram()
{
    rhmd::features::ProgramFeatures program;
    program.name = "sample";
    program.malware = true;
    program.family = 7;
    for (std::uint32_t period : {5000U, 10000U}) {
        std::vector<rhmd::features::RawWindow> windows(3);
        for (std::size_t w = 0; w < windows.size(); ++w) {
            rhmd::features::RawWindow &window = windows[w];
            window.opcodeCounts.fill(static_cast<std::uint32_t>(w + 1));
            window.memDeltaBins.fill(static_cast<std::uint32_t>(2 * w));
            window.events.fill(period + w);
            window.instCount = period;
            window.cycles = 1.25 * period;
            window.injectedFrac = 0.125;
        }
        program.byPeriod[period] = windows;
    }
    return program;
}

std::uint64_t
programDigest(const rhmd::features::ProgramFeatures &program)
{
    Digest digest;
    digestProgram(digest, program);
    return digest.value();
}

/** A replay that differs from the timed run must fail the check. */
bool
checkFailsOn(std::uint64_t timed, std::uint64_t replayed)
{
    const RunCheck check = checkRun("selftest", 99, {timed}, {replayed});
    return !check.ok() && !check.goldenChecked;
}

void
testWindowCheck()
{
    const rhmd::features::ProgramFeatures program = sampleProgram();
    const std::uint64_t clean = programDigest(program);
    EXPECT(checkRun("selftest", 99, {clean}, {programDigest(program)}).ok());
    using Window = rhmd::features::RawWindow;
    const std::vector<std::function<void(Window &)>> flips = {
        [](Window &w) { w.opcodeCounts[3] ^= 1U; },
        [](Window &w) { w.memDeltaBins[19] ^= 1U; },
        [](Window &w) { w.events[5] ^= 1U; },
        [](Window &w) { w.instCount ^= 1U; },
        [](Window &w) { w.cycles = std::nextafter(w.cycles, 0.0); },
        [](Window &w) { w.injectedFrac = -w.injectedFrac; },
        [](Window &w) { w.truncated = !w.truncated; },
    };
    for (const auto &flip : flips) {
        rhmd::features::ProgramFeatures flipped = program;
        flip(flipped.byPeriod[10000][2]);
        EXPECT(checkFailsOn(clean, programDigest(flipped)));
    }
    rhmd::features::ProgramFeatures dropped = program;
    dropped.byPeriod[5000].pop_back();
    EXPECT(checkFailsOn(clean, programDigest(dropped)));
}

void
testDecisionCheck()
{
    std::vector<ServedDecision> requests;
    for (std::uint64_t key = 1; key <= 50; ++key)
        requests.push_back({key, true, {0, 1, 1, 0}, 1});
    const std::uint64_t clean = digestServeRep(requests);
    EXPECT(checkRun("selftest", 99, {clean}, {digestServeRep(requests)}).ok());

    std::vector<ServedDecision> flipped = requests;
    flipped[17].decisions[2] ^= 1;
    EXPECT(checkFailsOn(clean, digestServeRep(flipped)));
    flipped = requests;
    flipped[49].programDecision = 0;
    EXPECT(checkFailsOn(clean, digestServeRep(flipped)));
    flipped = requests;
    flipped[0].ok = false;
    EXPECT(checkFailsOn(clean, digestServeRep(flipped)));
    // Decisions must stay attached to their request key.
    flipped = requests;
    std::swap(flipped[3].key, flipped[4].key);
    EXPECT(checkFailsOn(clean, digestServeRep(flipped)));
}

void
testGoldenAndReplayRules()
{
    // An empty replay never passes, and a golden applies only to the
    // default seed.
    EXPECT(!checkRun("simulate", 5, {}, {}).ok());
    EXPECT(!checkRun("simulate", 5, {1, 2}, {1}).ok());
    EXPECT(!checkRun("simulate", 5, {1, 2}, {1, 2}).goldenChecked);
    const RunCheck defaultSeed =
        checkRun("simulate", kDefaultSeed, {1, 2}, {1, 2});
    EXPECT(defaultSeed.goldenChecked);
    EXPECT(!defaultSeed.ok());  // {1, 2} is not the recorded golden
    EXPECT(chainDigests({1, 2}) != chainDigests({2, 1}));
    EXPECT(chainDigests({1}) != chainDigests({1, 1}));
}

void
testProfile()
{
    const auto span = [](const char *name, std::int64_t start,
                         std::int64_t end, std::int32_t parent,
                         std::uint32_t rep) {
        Span s;
        s.name = name;
        s.startNs = start;
        s.endNs = end;
        s.parent = parent;
        s.rep = rep;
        s.units = 10;
        return s;
    };
    const std::vector<Span> spans = {
        span("rep", 0, 1000, -1, 0),
        span("a", 100, 400, 0, 0),
        span("b", 150, 250, 1, 0),
        span("a", 500, 900, 0, 0),
        span("rep", 2000, 2100, -1, 1),
        span("probe", 2200, 2300, -1, 0),
    };
    EXPECT(findRepRoot(spans, 0) == 0);
    EXPECT(findRepRoot(spans, 1) == 4);
    EXPECT(findRepRoot(spans, 2) == -1);
    const RepProfile profile = profileRep(spans, 0);
    const auto near = [](double a, double b) {
        return std::fabs(a - b) < 1e-12;
    };
    EXPECT(near(profile.repSeconds, 1000e-9));
    EXPECT(near(profile.unattributedSeconds, 300e-9));
    EXPECT(profile.layers.at("a").calls == 2);
    EXPECT(near(profile.layers.at("a").seconds, 600e-9));
    EXPECT(near(profile.layers.at("b").seconds, 100e-9));
    EXPECT(profile.layers.count("probe") == 0);
    EXPECT(probeRow(spans, 0, "probe").calls == 1);
    EXPECT(probeRow(spans, 1, "probe").calls == 0);
}

} // namespace

int
main()
{
    testBestIndex();
    testMedian();
    testPercentile();
    testParsing();
    testWindowCheck();
    testDecisionCheck();
    testGoldenAndReplayRules();
    testProfile();
    std::printf("perfbench selftest: %d checks passed\n", checks);
    return 0;
}
