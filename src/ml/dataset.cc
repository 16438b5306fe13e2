/**
 * @file
 * Dataset and standardizer implementation.
 */

#include "ml/dataset.hh"

#include <cmath>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::ml
{

void
Dataset::add(const std::vector<double> &features, int label)
{
    panic_if(label != 0 && label != 1, "labels must be 0 or 1");
    x.appendRow(features.data(), features.size());
    y.push_back(label);
}

void
Dataset::validate() const
{
    panic_if(x.rows() != y.size(), "dataset x/y size mismatch");
}

void
countTrainSamples(const Dataset &data, std::size_t epochs)
{
    static support::Counter &c = support::metrics().counter(
        "ml.train_samples",
        "examples visited by the SGD trainers (LR, SVM, NN): rows x epochs");
    c.add(static_cast<std::uint64_t>(data.size()) * epochs);
}

Standardizer
Standardizer::fit(const features::FeatureMatrix &x)
{
    fatal_if(x.empty(), "cannot fit a standardizer on empty data");
    const std::size_t d = x.cols();
    const auto n = static_cast<double>(x.rows());

    Standardizer out;
    out.mean.assign(d, 0.0);
    out.scale.assign(d, 1.0);

    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        for (std::size_t j = 0; j < d; ++j)
            out.mean[j] += row[j];
    }
    for (double &m : out.mean)
        m /= n;

    std::vector<double> var(d, 0.0);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        for (std::size_t j = 0; j < d; ++j) {
            const double delta = row[j] - out.mean[j];
            var[j] += delta * delta;
        }
    }
    for (std::size_t j = 0; j < d; ++j) {
        const double sd = std::sqrt(var[j] / n);
        out.scale[j] = sd > 1e-12 ? sd : 1.0;
    }
    return out;
}

void
Standardizer::applyInPlace(double *row, std::size_t n) const
{
    panic_if(n != mean.size(),
             "standardizer dim mismatch: ", n, " vs ", mean.size());
    for (std::size_t j = 0; j < n; ++j)
        row[j] = (row[j] - mean[j]) / scale[j];
}

} // namespace rhmd::ml
