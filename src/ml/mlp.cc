/**
 * @file
 * MLP implementation (per-example momentum SGD on log loss).
 */

#include "ml/mlp.hh"

#include <cmath>

#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"  // for sigmoid()
#include "support/logging.hh"
#include "support/stats.hh"

namespace rhmd::ml
{

Mlp::Mlp(MlpConfig config)
    : config_(config)
{
}

void
Mlp::train(const Dataset &data, Rng &rng)
{
    fatal_if(data.empty(), "cannot train MLP on empty data");
    data.validate();
    inputDim_ = data.dim();
    const std::size_t hidden =
        config_.hidden == 0 ? inputDim_ : config_.hidden;

    const double init_sd =
        config_.initScale / std::sqrt(static_cast<double>(inputDim_));
    w1_.assign(hidden, std::vector<double>(inputDim_));
    b1_.assign(hidden, 0.0);
    w2_.assign(hidden, 0.0);
    b2_ = 0.0;
    for (auto &row : w1_) {
        for (double &w : row)
            w = rng.gaussian(0.0, init_sd);
    }
    const double out_sd =
        config_.initScale / std::sqrt(static_cast<double>(hidden));
    for (double &w : w2_)
        w = rng.gaussian(0.0, out_sd);

    std::vector<std::vector<double>> v1(
        hidden, std::vector<double>(inputDim_, 0.0));
    std::vector<double> vb1(hidden, 0.0);
    std::vector<double> v2(hidden, 0.0);
    double vb2 = 0.0;

    std::vector<double> act(hidden);

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        const double step = config_.learningRate /
                            (1.0 + 0.03 * static_cast<double>(epoch));
        const std::vector<std::size_t> order =
            rng.permutation(data.size());

        for (std::size_t i : order) {
            const double *x = data.x.row(i);
            const double target = static_cast<double>(data.y[i]);

            // Forward.
            double z_out = b2_;
            for (std::size_t h = 0; h < hidden; ++h) {
                act[h] =
                    std::tanh(dot(w1_[h].data(), x, inputDim_) + b1_[h]);
                z_out += w2_[h] * act[h];
            }
            const double p = sigmoid(z_out);

            // Backward: dLoss/dz_out for log loss is (p - y).
            const double delta_out = p - target;

            for (std::size_t h = 0; h < hidden; ++h) {
                const double delta_h =
                    delta_out * w2_[h] * (1.0 - act[h] * act[h]);

                v2[h] = config_.momentum * v2[h] -
                        step * (delta_out * act[h] +
                                config_.l2 * w2_[h]);
                w2_[h] += v2[h];

                auto &w_row = w1_[h];
                auto &v_row = v1[h];
                for (std::size_t j = 0; j < inputDim_; ++j) {
                    v_row[j] = config_.momentum * v_row[j] -
                               step * (delta_h * x[j] +
                                       config_.l2 * w_row[j]);
                    w_row[j] += v_row[j];
                }
                vb1[h] = config_.momentum * vb1[h] - step * delta_h;
                b1_[h] += vb1[h];
            }
            vb2 = config_.momentum * vb2 - step * delta_out;
            b2_ += vb2;
        }
    }
}

std::vector<double>
Mlp::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(w1_.empty(), "MLP scored before training");
    panic_if(x.rows() > 0 && x.cols() != inputDim_,
             "MLP batch dim mismatch: ", x.cols(), " vs ", inputDim_);
    // One affine sweep per hidden unit, then the tanh and the output
    // accumulation per row: z_out sums in ascending h from b2_.
    std::vector<double> hidden(x.rows());
    std::vector<double> out(x.rows(), b2_);
    for (std::size_t h = 0; h < w1_.size(); ++h) {
        linearMargin(x, w1_[h].data(), b1_[h], hidden.data());
        for (std::size_t r = 0; r < x.rows(); ++r)
            out[r] += w2_[h] * std::tanh(hidden[r]);
    }
    for (double &z : out)
        z = sigmoid(z);
    return out;
}

std::unique_ptr<Classifier>
Mlp::clone() const
{
    return std::make_unique<Mlp>(*this);
}

void
Mlp::setParams(std::vector<std::vector<double>> w1,
               std::vector<double> b1, std::vector<double> w2, double b2)
{
    panic_if(w1.empty() || w1.size() != b1.size() ||
             w1.size() != w2.size(),
             "inconsistent MLP parameter shapes");
    inputDim_ = w1.front().size();
    for (const auto &row : w1)
        panic_if(row.size() != inputDim_, "ragged MLP weight matrix");
    w1_ = std::move(w1);
    b1_ = std::move(b1);
    w2_ = std::move(w2);
    b2_ = b2;
}

std::vector<double>
Mlp::collapsedWeights() const
{
    panic_if(w1_.empty(), "MLP collapsed before training");
    std::vector<double> collapsed(inputDim_, 0.0);
    for (std::size_t h = 0; h < w1_.size(); ++h)
        axpy(collapsed, w2_[h], w1_[h]);
    return collapsed;
}

} // namespace rhmd::ml
