/**
 * @file
 * Corpus extraction and splitting implementation.
 */

#include "features/corpus.hh"

#include <map>

#include "features/extractor.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/tracing.hh"
#include "trace/execution.hh"

namespace rhmd::features
{

namespace
{

support::Counter &
programsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "corpus.programs", "programs run through feature extraction");
    return c;
}

support::Counter &
windowsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "corpus.windows", "feature windows extracted, all periods");
    return c;
}

} // namespace

const std::vector<RawWindow> &
ProgramFeatures::windows(std::uint32_t period) const
{
    const auto it = byPeriod.find(period);
    panic_if(it == byPeriod.end(), "program '", name,
             "' has no windows for period ", period);
    return it->second;
}

std::size_t
FeatureCorpus::malwareCount() const
{
    std::size_t count = 0;
    for (const ProgramFeatures &prog : programs)
        count += prog.malware ? 1 : 0;
    return count;
}

ProgramFeatures
extractProgram(const trace::Program &program, const ExtractConfig &config)
{
    FeatureSession session(config.periods);
    trace::Executor executor(program, program.seed ^ config.execSalt);
    executor.run(config.traceInsts, session);
    if (config.emitPartialWindows)
        session.finish();

    ProgramFeatures out;
    out.name = program.name;
    out.malware = program.malware;
    out.family = program.family;
    std::uint64_t n_windows = 0;
    for (std::uint32_t period : config.periods) {
        // Move the windows out of the session: programs with many
        // windows per period would otherwise be deep-copied here.
        out.byPeriod[period] = session.takeWindows(period);
        n_windows += out.byPeriod[period].size();
    }
    programsCounter().add(1);
    windowsCounter().add(n_windows);
    return out;
}

FeatureCorpus
extractCorpus(const std::vector<trace::Program> &programs,
              const ExtractConfig &config)
{
    const support::ScopedSpan span("extract_corpus");
    FeatureCorpus corpus;
    corpus.periods = config.periods;
    // Each program executes with its own (program.seed ^ execSalt)
    // stream, so extraction is index-independent and parallelizes
    // with results collected in program order.
    corpus.programs = support::parallelMap<ProgramFeatures>(
        programs.size(), [&](std::size_t i) {
            return extractProgram(programs[i], config);
        });
    return corpus;
}

SplitIndices
stratifiedSplit(const FeatureCorpus &corpus, std::uint64_t seed)
{
    // Group program indices by (class, family) so each stratum is
    // spread proportionally over the three sets.
    std::map<std::pair<bool, std::uint32_t>, std::vector<std::size_t>>
        strata;
    for (std::size_t i = 0; i < corpus.programs.size(); ++i) {
        const ProgramFeatures &prog = corpus.programs[i];
        strata[{prog.malware, prog.family}].push_back(i);
    }

    Rng rng(seed);
    SplitIndices split;

    // Assign each program to the subset with the largest deficit
    // against the global 60/20/20 target. Walking the strata in
    // order keeps every (class, family) stratum spread across the
    // subsets, while the global deficit tracking keeps the overall
    // proportions exact even when strata are tiny.
    const double targets[3] = {0.6, 0.2, 0.2};
    std::size_t counts[3] = {0, 0, 0};
    std::size_t assigned = 0;
    std::vector<std::size_t> *subsets[3] = {&split.victimTrain,
                                            &split.attackerTrain,
                                            &split.attackerTest};
    for (auto &[key, members] : strata) {
        const std::vector<std::size_t> perm =
            rng.permutation(members.size());
        for (std::size_t i : perm) {
            ++assigned;
            std::size_t best = 0;
            double best_deficit = -1e18;
            for (std::size_t s = 0; s < 3; ++s) {
                const double deficit =
                    targets[s] * static_cast<double>(assigned) -
                    static_cast<double>(counts[s]);
                if (deficit > best_deficit) {
                    best_deficit = deficit;
                    best = s;
                }
            }
            subsets[best]->push_back(members[i]);
            ++counts[best];
        }
    }
    return split;
}

} // namespace rhmd::features
