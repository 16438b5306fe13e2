/**
 * @file
 * HMD implementation.
 */

#include "core/hmd.hh"

#include <algorithm>

#include "core/rhmd.hh"
#include "ml/logistic_regression.hh"
#include "ml/metrics.hh"
#include "ml/mlp.hh"
#include "ml/serialize.hh"
#include "ml/svm.hh"
#include "support/logging.hh"
#include "trace/injection.hh"

namespace rhmd::core
{

int
Detector::programDecision(const features::ProgramFeatures &prog)
{
    const std::vector<int> decisions = decide(prog);
    panic_if(decisions.empty(), "no decisions for program '", prog.name,
             "'");
    return majorityVote(decisions);
}

Hmd::Hmd(HmdConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.specs.empty(), "Hmd needs at least one feature spec");
    const std::uint32_t period = config_.specs.front().period;
    for (const features::FeatureSpec &spec : config_.specs)
        fatal_if(spec.period != period,
                 "all specs of one Hmd must share a period");
}

void
Hmd::train(const std::vector<const features::RawWindow *> &windows,
           const std::vector<int> &labels)
{
    panic_if(windows.size() != labels.size(), "train: size mismatch");
    fatal_if(windows.empty(), "cannot train an Hmd without windows");

    std::size_t n_pos = 0;
    for (int label : labels)
        n_pos += label;
    const bool mixed = n_pos > 0 && n_pos < labels.size();

    // Instructions feature selection, when not already pinned. With
    // single-class labels (a degenerate victim that flags everything
    // one way) there is no delta to rank, so fall back to the first
    // K opcode classes.
    for (features::FeatureSpec &spec : config_.specs) {
        if (spec.kind != features::FeatureKind::Instructions ||
            !spec.opcodeSel.empty()) {
            continue;
        }
        if (mixed) {
            std::vector<bool> label_bits(labels.size());
            for (std::size_t i = 0; i < labels.size(); ++i)
                label_bits[i] = labels[i] == 1;
            if (config_.opcodePoolK > config_.opcodeTopK) {
                // Random subspace: top-poolK ranking, then a seeded
                // draw of topK of them.
                const std::vector<std::size_t> pool =
                    features::selectTopDeltaOpcodes(
                        windows, label_bits,
                        std::min(config_.opcodePoolK,
                                 trace::kNumOpClasses));
                Rng rng(config_.seed ^ 0x5b5f4ceULL);
                const std::vector<std::size_t> perm =
                    rng.permutation(pool.size());
                spec.opcodeSel.clear();
                for (std::size_t k = 0; k < config_.opcodeTopK; ++k)
                    spec.opcodeSel.push_back(pool[perm[k]]);
            } else {
                spec.opcodeSel = features::selectTopDeltaOpcodes(
                    windows, label_bits, config_.opcodeTopK);
            }
        } else {
            spec.opcodeSel.resize(config_.opcodeTopK);
            for (std::size_t k = 0; k < config_.opcodeTopK; ++k)
                spec.opcodeSel[k] = k;
        }
    }

    ml::Dataset raw;
    for (std::size_t i = 0; i < windows.size(); ++i)
        raw.add(features::combinedVector(config_.specs, *windows[i]),
                labels[i]);

    standardizer_ = ml::Standardizer::fit(raw);
    const ml::Dataset data = standardizer_.transform(raw);

    clf_ = ml::makeClassifier(config_.algorithm);
    Rng rng(config_.seed);
    clf_->train(data, rng);

    // Operating point: the balanced-accuracy optimum of the training
    // ROC. The paper operates "at or near" the accuracy optimum; our
    // corpus inherits its 1:2 benign:malware imbalance, where the
    // raw-accuracy optimum degenerates into flagging nearly
    // everything, so the balanced point is the faithful equivalent
    // of the paper's high-sensitivity/high-specificity operation.
    const std::vector<double> scores = scoreWindows(windows);
    const bool both_classes =
        raw.positives() > 0 && raw.positives() < raw.size();
    threshold_ = both_classes
        ? ml::bestBalancedThreshold(scores, data.y)
        : 0.5;
}

void
Hmd::trainOnPrograms(const features::FeatureCorpus &corpus,
                     const std::vector<std::size_t> &program_idx)
{
    std::vector<const features::RawWindow *> windows;
    std::vector<int> labels;
    collectWindows(corpus, program_idx, decisionPeriod(), windows,
                   labels);
    train(windows, labels);
}

std::vector<double>
Hmd::featureVector(const features::RawWindow &window) const
{
    std::vector<double> row(featureDim());
    fillFeatureRow(window, row.data());
    return row;
}

std::size_t
Hmd::featureDim() const
{
    return features::combinedDim(config_.specs);
}

void
Hmd::fillFeatureRow(const features::RawWindow &window, double *row) const
{
    features::fillCombined(config_.specs, window, row);
    // Passing the row width keeps a standardizer fitted at a
    // different dimensionality from silently scaling past the end of
    // the row (it panics instead) — a truncated tail window still
    // fills featureDim() rate features, just from fewer instructions.
    standardizer_.applyInPlace(row, featureDim());
}

features::FeatureMatrix
Hmd::featureMatrix(
    const std::vector<const features::RawWindow *> &windows) const
{
    features::FeatureMatrix matrix(windows.size(), featureDim());
    for (std::size_t r = 0; r < windows.size(); ++r) {
        panic_if(windows[r] == nullptr, "null window in batch");
        fillFeatureRow(*windows[r], matrix.row(r));
    }
    return matrix;
}

std::vector<double>
Hmd::scoreWindows(
    const std::vector<const features::RawWindow *> &windows) const
{
    panic_if(!trained(), "Hmd queried before training");
    return clf_->scoreBatch(featureMatrix(windows));
}

double
Hmd::windowScore(const features::RawWindow &window) const
{
    return scoreWindows({&window}).front();
}

int
Hmd::windowDecision(const features::RawWindow &window) const
{
    return windowScore(window) >= threshold_ ? 1 : 0;
}

std::uint32_t
Hmd::decisionPeriod() const
{
    return config_.specs.front().period;
}

std::vector<int>
Hmd::decide(const features::ProgramFeatures &prog)
{
    const std::vector<double> scores =
        scoreWindows(windowPointers(prog.windows(decisionPeriod())));
    std::vector<int> decisions;
    decisions.reserve(scores.size());
    for (double score : scores)
        decisions.push_back(score >= threshold_ ? 1 : 0);
    return decisions;
}

double
Hmd::programScore(const features::ProgramFeatures &prog) const
{
    const auto &windows = prog.windows(decisionPeriod());
    panic_if(windows.empty(), "program '", prog.name, "' has no windows");
    double total = 0.0;
    for (double score : scoreWindows(windowPointers(windows)))
        total += score;
    return total / static_cast<double>(windows.size());
}

std::vector<double>
Hmd::effectiveRawWeights() const
{
    panic_if(!trained(), "weights requested before training");
    std::vector<double> standardized;
    if (const auto *lr = dynamic_cast<const ml::LogisticRegression *>(
            clf_.get())) {
        standardized = lr->weights();
    } else if (const auto *svm =
                   dynamic_cast<const ml::LinearSvm *>(clf_.get())) {
        standardized = svm->weights();
    } else if (const auto *mlp =
                   dynamic_cast<const ml::Mlp *>(clf_.get())) {
        standardized = mlp->collapsedWeights();
    } else {
        rhmd_fatal("classifier '", clf_->name(),
                   "' exposes no weight vector");
    }
    // d score / d raw_j = w_j / scale_j.
    std::vector<double> raw(standardized.size());
    for (std::size_t j = 0; j < raw.size(); ++j)
        raw[j] = standardized[j] / standardizer_.scale[j];
    return raw;
}

std::vector<std::pair<trace::OpClass, double>>
Hmd::negativeWeightOpcodes() const
{
    const std::vector<double> weights = effectiveRawWeights();
    std::vector<std::pair<trace::OpClass, double>> out;

    std::size_t offset = 0;
    for (const features::FeatureSpec &spec : config_.specs) {
        if (spec.kind == features::FeatureKind::Instructions) {
            for (std::size_t k = 0; k < spec.opcodeSel.size(); ++k) {
                const double w = weights[offset + k];
                const trace::OpClass op =
                    trace::opFromIndex(spec.opcodeSel[k]);
                // Control-flow and stack opcodes may well carry
                // negative weight (branch and stack rates are
                // discriminative), but the rewriter cannot insert
                // them without changing program semantics, so they
                // are not candidates.
                if (w < 0.0 && trace::isInjectable(op))
                    out.emplace_back(op, -w);
            }
        }
        offset += spec.dim();
    }
    fatal_if(out.empty(),
             "no negative-weight Instructions opcodes available "
             "(detector '", describe(), "')");
    // Deterministic descending-magnitude order.
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    return out;
}

std::string
Hmd::describe() const
{
    std::string label = config_.algorithm + "/";
    for (std::size_t i = 0; i < config_.specs.size(); ++i) {
        if (i > 0)
            label += "+";
        label += config_.specs[i].describe();
    }
    return label;
}

std::vector<const features::RawWindow *>
windowPointers(const std::vector<features::RawWindow> &windows)
{
    std::vector<const features::RawWindow *> out;
    out.reserve(windows.size());
    for (const features::RawWindow &window : windows)
        out.push_back(&window);
    return out;
}

void
collectWindows(const features::FeatureCorpus &corpus,
               const std::vector<std::size_t> &program_idx,
               std::uint32_t period,
               std::vector<const features::RawWindow *> &windows,
               std::vector<int> &labels)
{
    for (std::size_t idx : program_idx) {
        panic_if(idx >= corpus.programs.size(),
                 "program index out of range");
        const features::ProgramFeatures &prog = corpus.programs[idx];
        for (const features::RawWindow &window : prog.windows(period)) {
            windows.push_back(&window);
            labels.push_back(prog.malware ? 1 : 0);
        }
    }
}

} // namespace rhmd::core
