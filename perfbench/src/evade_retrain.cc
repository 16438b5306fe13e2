/**
 * @file
 * Workload "evade_retrain": one Fig. 13 generation per rep.
 *
 * Set-up builds a 180-program, 40k-instruction corpus in memory (the
 * "serve" preset at smoke size, as in the serve workload). Each rep,
 * with rep-indexed seeds:
 *   1. trains an NN victim (Hmd::train) on the victim-train windows;
 *   2. queries it and fits an NN proxy (VictimTranscript::record,
 *      buildProxyFromTranscript);
 *   3. rewrites the train and test malware with weighted block
 *      injection against the proxy (evadeRewrite) and re-extracts the
 *      variants (features::extractProgram);
 *   4. retrains on the original windows plus the evasive train
 *      variants;
 *   5. scores both detectors on the held-out test malware, unmodified
 *      and evasive (Experiment::detectionRate).
 * This is the only workload that trains models, rewrites programs and
 * runs the injection gate.
 */

#include <cstddef>
#include <memory>

#include "core/evasion.hh"
#include "core/experiment.hh"
#include "core/reverse_engineer.hh"
#include "corpus/cache.hh"
#include "features/corpus.hh"
#include "support/rng.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace rhmd;

constexpr std::uint32_t kPeriod = 10000;

core::HmdConfig
nnConfig(std::uint64_t seed)
{
    core::HmdConfig config;
    config.algorithm = "NN";
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = kPeriod;
    config.specs = {spec};
    config.opcodeTopK = 16;
    config.seed = seed;
    return config;
}

/** Append every window of @p program at kPeriod with @p label. */
void
appendWindows(const features::ProgramFeatures &program, int label,
              std::vector<const features::RawWindow *> &windows,
              std::vector<int> &labels)
{
    for (const features::RawWindow &window : program.windows(kPeriod)) {
        windows.push_back(&window);
        labels.push_back(label);
    }
}

class EvadeRetrain final : public Workload
{
  public:
    explicit EvadeRetrain(std::uint64_t seed) : seeds_(seed ^ 0xe7ade5ULL) {}

    void setup() override
    {
        exp_ = std::make_unique<core::Experiment>(
            core::Experiment::build(corpus::presetConfig("serve", true)));
        const features::SplitIndices &split = exp_->split();
        trainMalware_ = exp_->malwareOf(split.victimTrain);
        testMalware_ = exp_->malwareOf(split.attackerTest);
        evaded_ = trainMalware_;
        evaded_.insert(evaded_.end(), testMalware_.begin(),
                       testMalware_.end());
    }

    void teardown() override
    {
        exp_.reset();
        trainMalware_ = {};
        testMalware_ = {};
        evaded_ = {};
    }

    RepResult runRep(std::uint32_t index, Tracer *tracer) override
    {
        const core::Experiment &exp = *exp_;
        const features::FeatureCorpus &corpus = exp.corpus();
        const std::uint64_t base = 4ULL * index;
        std::vector<features::ProgramFeatures> variants;
        variants.reserve(evaded_.size());
        core::EvasionAudit audit;
        double sens[4] = {};

        RepResult result;
        RepClock clock(tracer, index);
        // 1. Victim.
        std::vector<const features::RawWindow *> windows;
        std::vector<int> labels;
        core::collectWindows(corpus, exp.split().victimTrain, kPeriod,
                             windows, labels);
        core::Hmd victim(nnConfig(seeds_.seedAt(base)));
        {
            SpanScope span(tracer, "ml.train", index);
            victim.train(windows, labels);
            span.setUnits(windows.size());
        }
        // 2. Reverse-engineering.
        std::unique_ptr<core::Hmd> proxy;
        {
            std::unique_ptr<core::VictimTranscript> transcript;
            {
                SpanScope span(tracer, "core.victim_query", index);
                transcript = std::make_unique<core::VictimTranscript>(
                    core::VictimTranscript::record(
                        victim, corpus, exp.split().attackerTrain));
            }
            core::ProxyConfig proxy_config;
            proxy_config.algorithm = "NN";
            proxy_config.specs = victim.specs();
            proxy_config.seed = seeds_.seedAt(base + 1);
            SpanScope span(tracer, "core.proxy_train", index);
            proxy = core::buildProxyFromTranscript(*transcript, corpus,
                                                   proxy_config);
        }
        // 3. Evasive variants of the train and test malware.
        core::EvasionPlan plan;
        plan.strategy = core::EvasionStrategy::Weighted;
        plan.level = trace::InjectLevel::Block;
        plan.count = 3;
        plan.seed = seeds_.seedAt(base + 2);
        for (std::size_t idx : evaded_) {
            trace::Program rewritten;
            {
                SpanScope span(tracer, "core.evade_rewrite", index);
                rewritten = core::evadeRewrite(exp.programs()[idx], plan,
                                               proxy.get(), &audit);
            }
            SpanScope span(tracer, "features.extract", index);
            variants.push_back(
                features::extractProgram(rewritten, exp.extractConfig()));
            span.setUnits(exp.extractConfig().traceInsts);
        }
        const std::vector<features::ProgramFeatures> evasiveTest(
            variants.begin() +
                static_cast<std::ptrdiff_t>(trainMalware_.size()),
            variants.end());
        // 4. Retrain on the evasive train variants.
        for (std::size_t i = 0; i < trainMalware_.size(); ++i)
            appendWindows(variants[i], 1, windows, labels);
        core::Hmd retrained(nnConfig(seeds_.seedAt(base + 3)));
        {
            SpanScope span(tracer, "ml.train", index);
            retrained.train(windows, labels);
            span.setUnits(windows.size());
        }
        // 5. Both detectors on the held-out malware.
        {
            SpanScope span(tracer, "core.detection_rate", index);
            sens[0] = exp.detectionRateOn(victim, testMalware_);
            sens[1] = core::Experiment::detectionRate(victim, evasiveTest);
            sens[2] = exp.detectionRateOn(retrained, testMalware_);
            sens[3] =
                core::Experiment::detectionRate(retrained, evasiveTest);
            span.setUnits(2 * (testMalware_.size() + evasiveTest.size()));
        }
        result.seconds = clock.stop();

        Digest digest;
        for (const features::ProgramFeatures &variant : variants) {
            digestProgram(digest, variant);
            result.uarch.add(variant, kPeriod);
            if (variant.windows(kPeriod).size() !=
                exp.extractConfig().traceInsts / kPeriod)
                result.valid = false;
        }
        digest.u64(audit.admittedSites);
        digest.u64(audit.rejectedSites);
        digest.u64(audit.verifiedPrograms);
        for (double s : sens) {
            digest.f64(s);
            if (!(s >= 0.0 && s <= 1.0))
                result.valid = false;
        }
        if (audit.verifiedPrograms != evaded_.size())
            result.valid = false;
        result.digest = digest.value();
        result.attempted = 1;
        return result;
    }

    std::uint32_t checkedReps() const override { return 2; }

    std::vector<Metric> summarize(double rep_seconds,
                                  const std::vector<RepResult> &) const override
    {
        return {{"gen_s", "s", rep_seconds}};
    }

  private:
    SplitRng seeds_;
    std::unique_ptr<core::Experiment> exp_;
    std::vector<std::size_t> trainMalware_;
    std::vector<std::size_t> testMalware_;
    std::vector<std::size_t> evaded_;  ///< train then test malware
};

} // namespace

std::unique_ptr<Workload>
makeEvadeRetrain(std::uint64_t seed)
{
    return std::make_unique<EvadeRetrain>(seed);
}

} // namespace perfbench
