/**
 * @file
 * Retraining studies implementation.
 */

#include "core/retrainer.hh"

#include <cmath>

#include "ml/metrics.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/tracing.hh"

namespace rhmd::core
{

namespace
{

/** Append every window of @p prog (at @p period) with @p label. */
void
appendWindows(const features::ProgramFeatures &prog, std::uint32_t period,
              int label,
              std::vector<const features::RawWindow *> &windows,
              std::vector<int> &labels)
{
    for (const features::RawWindow &window : prog.windows(period)) {
        windows.push_back(&window);
        labels.push_back(label);
    }
}

/** Fresh, untrained detector with the experiment's usual shape. */
HmdConfig
detectorConfig(const std::string &algorithm, features::FeatureKind kind,
               std::uint32_t period, std::size_t top_k,
               std::uint64_t seed)
{
    HmdConfig config;
    config.algorithm = algorithm;
    features::FeatureSpec spec;
    spec.kind = kind;
    spec.period = period;
    config.specs = {spec};
    config.opcodeTopK = top_k;
    config.seed = seed;
    return config;
}

/** Window-level accuracy of a detector on a labeled window set. */
double
windowAccuracy(const Hmd &detector,
               const std::vector<const features::RawWindow *> &windows,
               const std::vector<int> &labels)
{
    const std::vector<double> scores = detector.scoreWindows(windows);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        correct += detector.decision(scores[i]) == labels[i] ? 1 : 0;
    }
    return static_cast<double>(correct) /
           static_cast<double>(windows.size());
}

} // namespace

std::vector<RetrainPoint>
retrainSweep(const Experiment &exp, const RetrainConfig &config)
{
    const support::ScopedSpan span("retrain_sweep");
    const auto &split = exp.split();
    const std::uint32_t period = config.period;

    // 1. Victim and its reverse-engineered proxy (the attacker's
    //    model that drives the evasive rewriting).
    const std::unique_ptr<Hmd> victim =
        exp.trainVictim(config.algorithm, config.kind, period,
                        config.seed);
    ProxyConfig proxy_config;
    proxy_config.algorithm = "NN";
    features::FeatureSpec proxy_spec;
    proxy_spec.kind = config.kind;
    proxy_spec.period = period;
    proxy_config.specs = {proxy_spec};
    proxy_config.opcodeTopK = exp.config().opcodeTopK;
    proxy_config.seed = config.seed ^ 0x9e37ULL;
    const std::unique_ptr<Hmd> proxy = buildProxy(
        *victim, exp.corpus(), split.attackerTrain, proxy_config);

    // 2. Evasive variants of training and test malware.
    const std::vector<std::size_t> train_mal =
        exp.malwareOf(split.victimTrain);
    const std::vector<std::size_t> train_ben =
        exp.benignOf(split.victimTrain);
    const std::vector<std::size_t> test_mal =
        exp.malwareOf(split.attackerTest);
    const std::vector<std::size_t> test_ben =
        exp.benignOf(split.attackerTest);

    const std::vector<features::ProgramFeatures> evasive_train =
        exp.extractEvasive(train_mal, config.evasion, proxy.get());
    const std::vector<features::ProgramFeatures> evasive_test =
        exp.extractEvasive(test_mal, config.evasion, proxy.get());

    // 3. Sweep the evasive share of the malware training set.
    std::vector<RetrainPoint> points;
    points.reserve(config.fractions.size());
    for (double fraction : config.fractions) {
        const auto n_evasive = static_cast<std::size_t>(
            std::lround(fraction *
                        static_cast<double>(train_mal.size())));

        std::vector<const features::RawWindow *> windows;
        std::vector<int> labels;
        for (std::size_t idx : train_ben)
            appendWindows(exp.corpus().programs[idx], period, 0,
                          windows, labels);
        for (std::size_t i = 0; i < train_mal.size(); ++i) {
            const features::ProgramFeatures &prog = i < n_evasive
                ? evasive_train[i]
                : exp.corpus().programs[train_mal[i]];
            appendWindows(prog, period, 1, windows, labels);
        }

        Hmd retrained(detectorConfig(config.algorithm, config.kind,
                                     period, exp.config().opcodeTopK,
                                     config.seed + 1000));
        retrained.train(windows, labels);

        RetrainPoint point;
        point.evasiveFrac = fraction;
        point.sensEvasive =
            Experiment::detectionRate(retrained, evasive_test);
        point.sensUnmodified =
            exp.detectionRateOn(retrained, test_mal);
        point.specificity =
            1.0 - exp.detectionRateOn(retrained, test_ben);
        points.push_back(point);
    }
    return points;
}

std::vector<GenerationPoint>
evadeRetrainGame(const Experiment &exp, const GameConfig &config)
{
    const support::ScopedSpan span("game");
    const auto &split = exp.split();
    const std::uint32_t period = config.period;

    const std::vector<std::size_t> train_mal =
        exp.malwareOf(split.victimTrain);
    const std::vector<std::size_t> train_ben =
        exp.benignOf(split.victimTrain);
    const std::vector<std::size_t> test_mal =
        exp.malwareOf(split.attackerTest);
    const std::vector<std::size_t> test_ben =
        exp.benignOf(split.attackerTest);

    // Per-generation evasive variants (training- and test-side).
    std::vector<std::vector<features::ProgramFeatures>> evasive_train;
    std::vector<std::vector<features::ProgramFeatures>> evasive_test;

    std::vector<GenerationPoint> points;
    for (std::size_t gen = 1; gen <= config.generations; ++gen) {
        const support::ScopedSpan gen_span("generation");
        // Train this generation on original data plus every earlier
        // generation's evasive malware.
        std::vector<const features::RawWindow *> windows;
        std::vector<int> labels;
        for (std::size_t idx : train_ben)
            appendWindows(exp.corpus().programs[idx], period, 0,
                          windows, labels);
        for (std::size_t idx : train_mal)
            appendWindows(exp.corpus().programs[idx], period, 1,
                          windows, labels);
        for (const auto &generation : evasive_train) {
            for (const features::ProgramFeatures &prog : generation)
                appendWindows(prog, period, 1, windows, labels);
        }

        Hmd detector(detectorConfig(config.algorithm, config.kind,
                                    period, exp.config().opcodeTopK,
                                    config.seed + gen));
        {
            const support::ScopedSpan train_span("train");
            detector.train(windows, labels);
        }

        GenerationPoint point;
        point.generation = static_cast<int>(gen);
        {
            const support::ScopedSpan eval_span("evaluate");
            point.trainAccuracy =
                windowAccuracy(detector, windows, labels);
            point.specificity =
                1.0 - exp.detectionRateOn(detector, test_ben);
            point.sensUnmodified =
                exp.detectionRateOn(detector, test_mal);
            point.sensPreviousGen = evasive_test.empty()
                ? -1.0
                : Experiment::detectionRate(detector,
                                            evasive_test.back());
        }

        // The attacker reverse-engineers this generation and crafts
        // new evasive malware against the proxy.
        ProxyConfig proxy_config;
        proxy_config.algorithm = "NN";
        features::FeatureSpec proxy_spec;
        proxy_spec.kind = config.kind;
        proxy_spec.period = period;
        proxy_config.specs = {proxy_spec};
        proxy_config.opcodeTopK = exp.config().opcodeTopK;
        proxy_config.seed = config.seed ^ (gen * 0x51ULL);
        std::unique_ptr<Hmd> proxy;
        {
            const support::ScopedSpan reveng_span("reveng");
            proxy = buildProxy(detector, exp.corpus(),
                               split.attackerTrain, proxy_config);
        }

        EvasionPlan plan = config.evasion;
        plan.seed = config.evasion.seed + gen;
        {
            const support::ScopedSpan evade_span("evade");
            evasive_train.push_back(
                exp.extractEvasive(train_mal, plan, proxy.get()));
            evasive_test.push_back(
                exp.extractEvasive(test_mal, plan, proxy.get()));
        }

        point.sensCurrentGen =
            Experiment::detectionRate(detector, evasive_test.back());
        points.push_back(point);
    }
    return points;
}

support::StatusOr<std::unique_ptr<Rhmd>>
retrainPool(const features::FeatureCorpus &base,
            const std::vector<std::size_t> &train_idx,
            const std::vector<features::ProgramFeatures> &flagged,
            const PoolRetrainConfig &config)
{
    const support::ScopedSpan span("retrain_pool");
    if (config.specs.empty())
        return support::invalidArgumentError(
            "retrainPool needs at least one detector spec");
    for (std::size_t idx : train_idx) {
        if (idx >= base.programs.size())
            return support::invalidArgumentError(
                "retrainPool train index ", idx,
                " out of range (corpus has ", base.programs.size(),
                " programs)");
    }
    std::vector<std::uint32_t> periods;
    for (const features::FeatureSpec &spec : config.specs)
        periods.push_back(spec.period);
    const support::Status periods_ok = validateEpochPeriods(periods);
    if (!periods_ok.isOk())
        return periods_ok;

    // One detector per spec, trained in parallel. Seeds come from a
    // SplitRng stream indexed by (generation, detector) so every
    // retrain round draws fresh, order-independent randomness — the
    // same derivation at any thread count, mirroring buildRhmd.
    const SplitRng seeds(config.seed);
    std::vector<std::unique_ptr<Hmd>> detectors =
        support::parallelMap<std::unique_ptr<Hmd>>(
            config.specs.size(), [&](std::size_t i) {
                HmdConfig hmd_config;
                hmd_config.algorithm = config.algorithm;
                hmd_config.specs = {config.specs[i]};
                hmd_config.opcodeTopK = config.opcodeTopK;
                hmd_config.seed =
                    seeds.seedAt((config.generation << 16) | i);
                auto det = std::make_unique<Hmd>(hmd_config);

                std::vector<const features::RawWindow *> windows;
                std::vector<int> labels;
                collectWindows(base, train_idx,
                               config.specs[i].period, windows,
                               labels);
                for (const features::ProgramFeatures &prog : flagged)
                    appendWindows(prog, config.specs[i].period, 1,
                                  windows, labels);
                det->train(windows, labels);
                return det;
            });

    return tryMakeRhmd(std::move(detectors), {},
                       config.seed ^ (config.generation * 0x9e37ULL) ^
                           0xabcdefULL);
}

} // namespace rhmd::core
