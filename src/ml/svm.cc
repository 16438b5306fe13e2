/**
 * @file
 * Pegasos linear SVM implementation.
 */

#include "ml/svm.hh"

#include <cmath>

#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"  // for sigmoid()
#include "support/logging.hh"
#include "support/stats.hh"

namespace rhmd::ml
{

LinearSvm::LinearSvm(SvmConfig config)
    : config_(config)
{
}

void
LinearSvm::train(const Dataset &data, Rng &rng)
{
    fatal_if(data.empty(), "cannot train SVM on empty data");
    data.validate();
    const std::size_t d = data.dim();
    weights_.assign(d, 0.0);
    bias_ = 0.0;

    std::size_t t = 0;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        const std::vector<std::size_t> order =
            rng.permutation(data.size());
        for (std::size_t i : order) {
            ++t;
            const double eta =
                1.0 / (config_.lambda * static_cast<double>(t));
            const double label = data.y[i] == 1 ? 1.0 : -1.0;
            const double m = (dot(weights_, data.x[i]) + bias_) * label;

            // w <- (1 - eta*lambda) w  [+ eta*y*x on margin violation]
            const double shrink = 1.0 - eta * config_.lambda;
            for (double &w : weights_)
                w *= shrink;
            if (m < 1.0) {
                axpy(weights_, eta * label, data.x[i]);
                bias_ += eta * label * 0.1;  // lightly-regularized bias
            }
        }
    }
}

double
LinearSvm::margin(const std::vector<double> &x) const
{
    panic_if(weights_.empty(), "SVM scored before training");
    return dot(weights_, x) + bias_;
}

std::vector<double>
LinearSvm::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(weights_.empty(), "SVM scored before training");
    panic_if(x.rows() > 0 && x.cols() != weights_.size(),
             "SVM batch dim mismatch: ", x.cols(), " vs ",
             weights_.size());
    // margin() per row with the support::dot accumulation order;
    // sharpness and sigmoid applied per row.
    std::vector<double> out(x.rows());
    linearMargin(x, weights_.data(), bias_, out.data());
    for (double &z : out)
        z = sigmoid(config_.scoreSharpness * z);
    return out;
}

std::unique_ptr<Classifier>
LinearSvm::clone() const
{
    return std::make_unique<LinearSvm>(*this);
}

void
LinearSvm::setParams(std::vector<double> weights, double bias)
{
    weights_ = std::move(weights);
    bias_ = bias;
}

} // namespace rhmd::ml
