/**
 * @file
 * Dataset and standardizer implementation.
 */

#include "ml/dataset.hh"

#include <cmath>

#include "support/logging.hh"

namespace rhmd::ml
{

void
Dataset::add(std::vector<double> features, int label)
{
    panic_if(label != 0 && label != 1, "labels must be 0 or 1");
    panic_if(!x.empty() && features.size() != x.front().size(),
             "feature dimensionality mismatch: ", features.size(),
             " vs ", x.front().size());
    x.push_back(std::move(features));
    y.push_back(label);
}

void
Dataset::add(const double *features, std::size_t n, int label)
{
    add(std::vector<double>(features, features + n), label);
}

std::size_t
Dataset::positives() const
{
    std::size_t count = 0;
    for (int label : y)
        count += label;
    return count;
}

void
Dataset::append(const Dataset &other)
{
    panic_if(!empty() && !other.empty() && dim() != other.dim(),
             "cannot append dataset of dim ", other.dim(), " to dim ",
             dim());
    x.insert(x.end(), other.x.begin(), other.x.end());
    y.insert(y.end(), other.y.begin(), other.y.end());
}

Dataset
Dataset::shuffled(Rng &rng) const
{
    const std::vector<std::size_t> perm = rng.permutation(size());
    Dataset out;
    out.x.reserve(size());
    out.y.reserve(size());
    for (std::size_t i : perm) {
        out.x.push_back(x[i]);
        out.y.push_back(y[i]);
    }
    return out;
}

void
Dataset::validate() const
{
    panic_if(x.size() != y.size(), "dataset x/y size mismatch");
    for (const auto &row : x)
        panic_if(row.size() != dim(), "ragged dataset rows");
}

Standardizer
Standardizer::fit(const Dataset &data)
{
    fatal_if(data.empty(), "cannot fit a standardizer on empty data");
    const std::size_t d = data.dim();
    const auto n = static_cast<double>(data.size());

    Standardizer out;
    out.mean.assign(d, 0.0);
    out.scale.assign(d, 1.0);

    for (const auto &row : data.x) {
        for (std::size_t j = 0; j < d; ++j)
            out.mean[j] += row[j];
    }
    for (double &m : out.mean)
        m /= n;

    std::vector<double> var(d, 0.0);
    for (const auto &row : data.x) {
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

std::vector<double>
Standardizer::apply(const std::vector<double> &v) const
{
    std::vector<double> out = v;
    applyInPlace(out.data(), out.size());
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

Dataset
Standardizer::transform(const Dataset &data) const
{
    Dataset out;
    out.x.reserve(data.size());
    out.y = data.y;
    for (const auto &row : data.x)
        out.x.push_back(apply(row));
    return out;
}

} // namespace rhmd::ml
