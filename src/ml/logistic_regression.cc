/**
 * @file
 * Logistic regression implementation.
 */

#include "ml/logistic_regression.hh"

#include <cmath>

#include "ml/kernels.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace rhmd::ml
{

double
sigmoid(double z)
{
    if (z >= 0.0) {
        const double e = std::exp(-z);
        return 1.0 / (1.0 + e);
    }
    const double e = std::exp(z);
    return e / (1.0 + e);
}

LogisticRegression::LogisticRegression(LrConfig config)
    : config_(config)
{
}

void
LogisticRegression::train(const Dataset &data, Rng &rng)
{
    fatal_if(data.empty(), "cannot train LR on empty data");
    data.validate();
    countTrainSamples(data, config_.epochs);
    const std::size_t d = data.dim();
    weights_.assign(d, 0.0);
    bias_ = 0.0;

    std::vector<double> grad(d, 0.0);
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        const double step = config_.learningRate /
                            (1.0 + 0.05 * static_cast<double>(epoch));
        const std::vector<std::size_t> order =
            rng.permutation(data.size());

        std::size_t cursor = 0;
        while (cursor < data.size()) {
            const std::size_t end =
                std::min(cursor + config_.batchSize, data.size());
            std::fill(grad.begin(), grad.end(), 0.0);
            double bias_grad = 0.0;
            for (std::size_t k = cursor; k < end; ++k) {
                const std::size_t i = order[k];
                const double *x = data.x.row(i);
                const double p =
                    sigmoid(dot(weights_.data(), x, d) + bias_);
                const double err = p - static_cast<double>(data.y[i]);
                axpy(grad.data(), err, x, d);
                bias_grad += err;
            }
            const double inv =
                1.0 / static_cast<double>(end - cursor);
            for (std::size_t j = 0; j < d; ++j) {
                weights_[j] -= step * (grad[j] * inv +
                                       config_.l2 * weights_[j]);
            }
            bias_ -= step * bias_grad * inv;
            cursor = end;
        }
    }
}

std::vector<double>
LogisticRegression::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(weights_.empty(), "LR scored before training");
    panic_if(x.rows() > 0 && x.cols() != weights_.size(),
             "LR batch dim mismatch: ", x.cols(), " vs ",
             weights_.size());
    // One margin per row with the support::dot accumulation order.
    std::vector<double> out(x.rows());
    linearMargin(x, weights_.data(), bias_, out.data());
    for (double &z : out)
        z = sigmoid(z);
    return out;
}

void
LogisticRegression::setParams(std::vector<double> weights, double bias)
{
    weights_ = std::move(weights);
    bias_ = bias;
}

} // namespace rhmd::ml
