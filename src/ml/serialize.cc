/**
 * @file
 * Classifier factory and text serialization implementation.
 */

#include "ml/serialize.hh"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "ml/decision_tree.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/logging.hh"

namespace rhmd::ml
{

std::unique_ptr<Classifier>
makeClassifier(const std::string &name)
{
    if (name == "LR")
        return std::make_unique<LogisticRegression>();
    if (name == "NN")
        return std::make_unique<Mlp>();
    if (name == "DT")
        return std::make_unique<DecisionTree>();
    if (name == "SVM")
        return std::make_unique<LinearSvm>();
    if (name == "RF")
        return std::make_unique<RandomForest>();
    rhmd_fatal("unknown classifier algorithm '", name, "'");
}

namespace
{

/**
 * Upper bound on any serialized vector length; anything larger is a
 * corrupt size field, not a real model (the largest real feature
 * vector is tens of entries).
 */
constexpr std::size_t kMaxVectorSize = 1u << 20;

void
writeVector(std::ostream &os, const std::vector<double> &v)
{
    os << v.size();
    for (double x : v)
        os << ' ' << x;
    os << '\n';
}

support::StatusOr<std::vector<double>>
readVector(std::istream &is)
{
    std::size_t n = 0;
    if (!(is >> n))
        return support::dataLossError(
            "corrupt model stream: missing vector size");
    if (n > kMaxVectorSize)
        return support::dataLossError(
            "corrupt model stream: absurd vector size ", n);
    std::vector<double> v(n);
    for (double &x : v) {
        if (!(is >> x))
            return support::dataLossError(
                "corrupt model stream: short vector");
        if (!std::isfinite(x))
            return support::dataLossError(
                "corrupt model stream: non-finite parameter");
    }
    return v;
}

support::StatusOr<double>
readScalar(std::istream &is, const char *what)
{
    double x = 0.0;
    if (!(is >> x))
        return support::dataLossError("corrupt model stream: missing ",
                                      what);
    if (!std::isfinite(x))
        return support::dataLossError("corrupt model stream: non-finite ",
                                      what);
    return x;
}

} // namespace

support::Status
trySaveModel(const Classifier &model, std::ostream &os)
{
    // Full round-trip precision: a reloaded model must score
    // identically to the one that was saved.
    os.precision(std::numeric_limits<double>::max_digits10);
    os << kModelMagic << ' ' << kModelFormatVersion << '\n';
    if (const auto *lr =
            dynamic_cast<const LogisticRegression *>(&model)) {
        os << "LR\n";
        writeVector(os, lr->weights());
        os << lr->bias() << '\n';
        return {};
    }
    if (const auto *svm = dynamic_cast<const LinearSvm *>(&model)) {
        os << "SVM\n";
        writeVector(os, svm->weights());
        os << svm->bias() << '\n';
        return {};
    }
    if (const auto *mlp = dynamic_cast<const Mlp *>(&model)) {
        os << "NN\n";
        os << mlp->hiddenWeights().size() << '\n';
        for (const auto &row : mlp->hiddenWeights())
            writeVector(os, row);
        writeVector(os, mlp->hiddenBias());
        writeVector(os, mlp->outputWeights());
        os << mlp->outputBias() << '\n';
        return {};
    }
    return support::invalidArgumentError(
        "model '", model.name(), "' does not support serialization");
}

support::StatusOr<std::unique_ptr<Classifier>>
tryLoadModel(std::istream &is)
{
    std::string magic;
    if (!(is >> magic))
        return support::dataLossError(
            "corrupt model stream: empty stream");
    if (magic != kModelMagic)
        return support::invalidArgumentError(
            "not an RHMD model stream: bad magic '", magic, "'");
    int version = 0;
    if (!(is >> version))
        return support::dataLossError(
            "corrupt model stream: missing format version");
    if (version != kModelFormatVersion)
        return support::failedPreconditionError(
            "unsupported model format version ", version, " (expected ",
            kModelFormatVersion, ")");

    std::string kind;
    if (!(is >> kind))
        return support::dataLossError(
            "corrupt model stream: missing model kind");
    if (kind == "LR" || kind == "SVM") {
        auto weights = readVector(is);
        if (!weights.isOk())
            return weights.status();
        if (weights->empty())
            return support::dataLossError("corrupt ", kind,
                                          " model: no weights");
        auto bias = readScalar(is, "bias");
        if (!bias.isOk())
            return bias.status();
        if (kind == "LR") {
            auto model = std::make_unique<LogisticRegression>();
            model->setParams(std::move(weights).value(), *bias);
            return std::unique_ptr<Classifier>(std::move(model));
        }
        auto model = std::make_unique<LinearSvm>();
        model->setParams(std::move(weights).value(), *bias);
        return std::unique_ptr<Classifier>(std::move(model));
    }
    if (kind == "NN") {
        std::size_t hidden = 0;
        if (!(is >> hidden))
            return support::dataLossError(
                "corrupt NN model: missing hidden size");
        if (hidden == 0)
            return support::dataLossError(
                "corrupt NN model: no hidden units");
        if (hidden > kMaxVectorSize)
            return support::dataLossError(
                "corrupt NN model: absurd hidden size ", hidden);
        std::vector<std::vector<double>> w1(hidden);
        for (auto &row : w1) {
            auto parsed = readVector(is);
            if (!parsed.isOk())
                return parsed.status();
            row = std::move(parsed).value();
        }
        auto b1 = readVector(is);
        if (!b1.isOk())
            return b1.status();
        auto w2 = readVector(is);
        if (!w2.isOk())
            return w2.status();
        auto b2 = readScalar(is, "output bias");
        if (!b2.isOk())
            return b2.status();
        if (b1->size() != hidden || w2->size() != hidden)
            return support::dataLossError(
                "corrupt NN model: layer size mismatch");
        for (const auto &row : w1) {
            if (row.size() != w1.front().size())
                return support::dataLossError(
                    "corrupt NN model: ragged hidden weights");
        }
        auto model = std::make_unique<Mlp>();
        model->setParams(std::move(w1), std::move(b1).value(),
                         std::move(w2).value(), *b2);
        return std::unique_ptr<Classifier>(std::move(model));
    }
    return support::invalidArgumentError("unknown model kind '", kind,
                                         "' in stream");
}

void
saveModel(const Classifier &model, std::ostream &os)
{
    const support::Status status = trySaveModel(model, os);
    fatal_if(!status.isOk(), status.message());
}

std::unique_ptr<Classifier>
loadModel(std::istream &is)
{
    auto model = tryLoadModel(is);
    fatal_if(!model.isOk(), model.status().message());
    return std::move(model).value();
}

} // namespace rhmd::ml
