/**
 * @file
 * Reverse-engineering implementation.
 */

#include "core/reverse_engineer.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/tracing.hh"

namespace rhmd::core
{

namespace
{

// The attacker's query budget (paper Sec. 4): every program submitted
// to the victim is one black-box query, every decision epoch one
// label the attacker harvests. Counted at the single victim-facing
// choke point (VictimTranscript::record), so the totals are the
// attack cost no matter which sweep or bench drove the queries.

support::Counter &
victimProgramsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.victim_programs",
        "programs submitted to the victim (one black-box query each)");
    return c;
}

support::Counter &
victimDecisionsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.victim_decisions",
        "decision epochs harvested from the victim");
    return c;
}

support::Counter &
transcriptsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.transcripts", "victim transcripts recorded");
    return c;
}

support::Counter &
proxiesCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.proxies", "proxy detectors trained from transcripts");
    return c;
}

support::Counter &
sweepsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.sweeps", "sweepProxyConfigs invocations");
    return c;
}

support::Counter &
sweepConfigsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "reveng.sweep_configs",
        "attacker hypotheses trained across all sweeps");
    return c;
}

} // namespace

VictimTranscript
VictimTranscript::record(Detector &victim,
                         const features::FeatureCorpus &corpus,
                         const std::vector<std::size_t> &program_idx)
{
    // Strictly sequential: a randomized victim consumes switching
    // randomness per epoch, so the order (and number) of queries is
    // part of the seeded stream. This is the only victim-facing pass;
    // everything downstream works from the frozen transcript.
    const support::ScopedSpan span("victim_transcript");
    VictimTranscript transcript;
    transcript.programIdx_ = program_idx;
    transcript.decisions_.reserve(program_idx.size());
    std::uint64_t decisions = 0;
    for (std::size_t idx : program_idx) {
        panic_if(idx >= corpus.programs.size(),
                 "transcript program index out of range");
        transcript.decisions_.push_back(
            victim.decide(corpus.programs[idx]));
        decisions += transcript.decisions_.back().size();
    }
    victimProgramsCounter().add(program_idx.size());
    victimDecisionsCounter().add(decisions);
    transcriptsCounter().add(1);
    return transcript;
}

const std::vector<int> &
VictimTranscript::decisions(std::size_t i) const
{
    panic_if(i >= decisions_.size(),
             "transcript has no program ", i);
    return decisions_[i];
}

std::unique_ptr<Hmd>
buildProxyFromTranscript(const VictimTranscript &transcript,
                         const features::FeatureCorpus &corpus,
                         const ProxyConfig &config)
{
    fatal_if(config.specs.empty(), "proxy needs at least one spec");
    const std::uint32_t attacker_period = config.specs.front().period;

    std::vector<const features::RawWindow *> windows;
    std::vector<int> labels;

    // The attacker does not know the victim's collection period: it
    // queries the victim, records the decision *sequence*, and pairs
    // its own i-th window with the victim's i-th decision. When the
    // attacker's hypothesized period matches the victim's, the pairs
    // align; when it does not, the pairing drifts apart one window
    // at a time — the mechanism behind the paper's Fig. 3a peak at
    // the true period.
    const std::vector<std::size_t> &program_idx = transcript.programs();
    for (std::size_t p = 0; p < program_idx.size(); ++p) {
        const features::ProgramFeatures &prog =
            corpus.programs[program_idx[p]];
        const std::vector<int> &decisions = transcript.decisions(p);
        const auto &attacker_windows = prog.windows(attacker_period);
        const std::size_t n =
            std::min(decisions.size(), attacker_windows.size());
        for (std::size_t i = 0; i < n; ++i) {
            windows.push_back(&attacker_windows[i]);
            labels.push_back(decisions[i]);
        }
    }
    fatal_if(windows.empty(),
             "no attacker windows available to train the proxy");

    HmdConfig hmd_config;
    hmd_config.algorithm = config.algorithm;
    hmd_config.specs = config.specs;
    hmd_config.opcodeTopK = config.opcodeTopK;
    hmd_config.seed = config.seed;
    auto proxy = std::make_unique<Hmd>(hmd_config);
    proxy->train(windows, labels);
    proxiesCounter().add(1);
    return proxy;
}

std::unique_ptr<Hmd>
buildProxy(Detector &victim, const features::FeatureCorpus &corpus,
           const std::vector<std::size_t> &attacker_train,
           const ProxyConfig &config)
{
    const VictimTranscript transcript =
        VictimTranscript::record(victim, corpus, attacker_train);
    return buildProxyFromTranscript(transcript, corpus, config);
}

double
proxyAgreementOnTranscript(const VictimTranscript &transcript,
                           const Hmd &proxy,
                           const features::FeatureCorpus &corpus)
{
    const std::uint32_t proxy_period = proxy.decisionPeriod();
    const std::vector<std::size_t> &program_idx = transcript.programs();

    // Both decision sequences are compared index-wise — "the
    // percentage of equivalent decisions made by the two detectors"
    // (Fig. 1b). The proxy side is pure scoring of const state, so
    // programs are scored concurrently; the integer counts are folded
    // in program order.
    struct Counts
    {
        std::size_t agree = 0;
        std::size_t total = 0;
    };
    const std::vector<Counts> per_program = support::parallelMap<Counts>(
        program_idx.size(), [&](std::size_t p) {
            const features::ProgramFeatures &prog =
                corpus.programs[program_idx[p]];
            const std::vector<int> &victim_decisions =
                transcript.decisions(p);
            std::vector<const features::RawWindow *> rows =
                windowPointers(prog.windows(proxy_period));
            rows.resize(std::min(victim_decisions.size(), rows.size()));
            const std::vector<double> scores = proxy.scoreWindows(rows);
            Counts c;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const int predicted = proxy.decision(scores[i]);
                c.agree += predicted == victim_decisions[i] ? 1 : 0;
                ++c.total;
            }
            return c;
        });
    Counts counts;
    for (const Counts &c : per_program) {
        counts.agree += c.agree;
        counts.total += c.total;
    }
    fatal_if(counts.total == 0, "no decisions to compare");
    return static_cast<double>(counts.agree) /
           static_cast<double>(counts.total);
}

double
proxyAgreement(Detector &victim, const Hmd &proxy,
               const features::FeatureCorpus &corpus,
               const std::vector<std::size_t> &attacker_test)
{
    const VictimTranscript transcript =
        VictimTranscript::record(victim, corpus, attacker_test);
    return proxyAgreementOnTranscript(transcript, proxy, corpus);
}

std::vector<double>
sweepProxyConfigs(Detector &victim,
                  const features::FeatureCorpus &corpus,
                  const std::vector<std::size_t> &attacker_train,
                  const std::vector<std::size_t> &attacker_test,
                  const std::vector<ProxyConfig> &configs)
{
    const support::ScopedSpan span("proxy_sweep");
    sweepsCounter().add(1);
    sweepConfigsCounter().add(configs.size());
    const VictimTranscript train =
        VictimTranscript::record(victim, corpus, attacker_train);
    const VictimTranscript test =
        VictimTranscript::record(victim, corpus, attacker_test);

    // One attacker hypothesis per index, trained and scored against
    // the shared transcripts. Each proxy trains from its own
    // config.seed, so configs are index-independent.
    return support::parallelMap<double>(
        configs.size(), [&](std::size_t c) {
            const std::unique_ptr<Hmd> proxy =
                buildProxyFromTranscript(train, corpus, configs[c]);
            return proxyAgreementOnTranscript(test, *proxy, corpus);
        });
}

} // namespace rhmd::core
