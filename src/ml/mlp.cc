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
    countTrainSamples(data, config_.epochs);
    inputDim_ = data.dim();
    const std::size_t hidden =
        config_.hidden == 0 ? inputDim_ : config_.hidden;
    // The hidden weights and their momenta train in one block laid out
    // [input][stride], stride being hidden rounded up to a whole group
    // of four units, so each pass over a row serves four units. The
    // padded lanes start at zero and get a zero delta; no unit reads
    // them, so they cannot reach a trained value.
    const std::size_t stride = (hidden + 3) / 4 * 4;

    const double init_sd =
        config_.initScale / std::sqrt(static_cast<double>(inputDim_));
    std::vector<double> w1(inputDim_ * stride, 0.0);
    for (std::size_t h = 0; h < hidden; ++h) {
        for (std::size_t j = 0; j < inputDim_; ++j)
            w1[j * stride + h] = rng.gaussian(0.0, init_sd);
    }
    std::vector<double> b1(hidden, 0.0);
    std::vector<double> w2(hidden, 0.0);
    double b2 = 0.0;
    const double out_sd =
        config_.initScale / std::sqrt(static_cast<double>(hidden));
    for (double &w : w2)
        w = rng.gaussian(0.0, out_sd);

    std::vector<double> v1(inputDim_ * stride, 0.0);
    std::vector<double> vb1(hidden, 0.0);
    std::vector<double> v2(hidden, 0.0);
    double vb2 = 0.0;

    std::vector<double> pre(stride);
    std::vector<double> act(hidden);
    std::vector<double> delta(stride, 0.0);
    const double momentum = config_.momentum;
    const double l2 = config_.l2;

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        const double step = config_.learningRate /
                            (1.0 + 0.03 * static_cast<double>(epoch));
        const std::vector<std::size_t> order =
            rng.permutation(data.size());

        for (std::size_t i : order) {
            const double *x = data.x.row(i);
            const double target = static_cast<double>(data.y[i]);

            // Forward. Each w.x sums in ascending j from +0.0 and the
            // bias comes after, the support::dot + bias order
            // linearMargin scores with.
            for (std::size_t h = 0; h < stride; h += 4) {
                double s0 = 0.0;
                double s1 = 0.0;
                double s2 = 0.0;
                double s3 = 0.0;
                const double *w4 = w1.data() + h;
                for (std::size_t j = 0; j < inputDim_; ++j) {
                    s0 += w4[0] * x[j];
                    s1 += w4[1] * x[j];
                    s2 += w4[2] * x[j];
                    s3 += w4[3] * x[j];
                    w4 += stride;
                }
                pre[h] = s0;
                pre[h + 1] = s1;
                pre[h + 2] = s2;
                pre[h + 3] = s3;
            }
            double z_out = b2;
            for (std::size_t h = 0; h < hidden; ++h) {
                act[h] = std::tanh(pre[h] + b1[h]);
                z_out += w2[h] * act[h];
            }
            const double p = sigmoid(z_out);

            // Backward: dLoss/dz_out for log loss is (p - y), and each
            // delta_h reads w2[h] before it moves.
            const double delta_out = p - target;

            for (std::size_t h = 0; h < hidden; ++h) {
                delta[h] = delta_out * w2[h] * (1.0 - act[h] * act[h]);
                v2[h] = momentum * v2[h] -
                        step * (delta_out * act[h] + l2 * w2[h]);
                w2[h] += v2[h];
                vb1[h] = momentum * vb1[h] - step * delta[h];
                b1[h] += vb1[h];
            }
            for (std::size_t j = 0; j < inputDim_; ++j) {
                double *wr = w1.data() + j * stride;
                double *vr = v1.data() + j * stride;
                const double xj = x[j];
                for (std::size_t h = 0; h < stride; h += 4) {
                    double *w4 = wr + h;
                    double *v4 = vr + h;
                    const double *d4 = delta.data() + h;
                    for (std::size_t k = 0; k < 4; ++k) {
                        v4[k] = momentum * v4[k] -
                                step * (d4[k] * xj + l2 * w4[k]);
                        w4[k] += v4[k];
                    }
                }
            }
            vb2 = momentum * vb2 - step * delta_out;
            b2 += vb2;
        }
    }

    w1_.assign(hidden, std::vector<double>(inputDim_));
    for (std::size_t h = 0; h < hidden; ++h) {
        for (std::size_t j = 0; j < inputDim_; ++j)
            w1_[h][j] = w1[j * stride + h];
    }
    b1_ = std::move(b1);
    w2_ = std::move(w2);
    b2_ = b2;
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
