/**
 * @file
 * FeatureMatrix implementation.
 */

#include "features/matrix.hh"

#include "support/logging.hh"

namespace rhmd::features
{

FeatureMatrix::FeatureMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
    panic_if(cols == 0 && rows != 0,
             "a feature matrix with rows needs at least one column");
}

void
FeatureMatrix::appendRow(const double *values, std::size_t n)
{
    panic_if(n == 0, "a feature matrix with rows needs at least one column");
    if (rows_ == 0)
        cols_ = n;
    panic_if(n != cols_, "feature dimensionality mismatch: ", n, " vs ",
             cols_);
    data_.insert(data_.end(), values, values + n);
    ++rows_;
}

} // namespace rhmd::features
