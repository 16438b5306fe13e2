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

std::vector<double>
FeatureMatrix::rowVector(std::size_t r) const
{
    panic_if(r >= rows_, "matrix row ", r, " out of range (", rows_,
             " rows)");
    return std::vector<double>(row(r), row(r) + cols_);
}

} // namespace rhmd::features
