/**
 * @file
 * Contiguous row-major feature matrix for batched scoring.
 *
 * Every classifier scores through Classifier::scoreBatch() on one of
 * these: a whole batch laid out as one contiguous row-major block, so
 * the kernels (src/ml/kernels.hh) walk rows with a plain pointer
 * loop. Each row's accumulation order is independent of the batch,
 * so a window scores the same alone or in any batch (the determinism
 * gates rely on it).
 */

#ifndef RHMD_FEATURES_MATRIX_HH
#define RHMD_FEATURES_MATRIX_HH

#include <cstddef>
#include <vector>

namespace rhmd::features
{

/** Dense row-major matrix of feature vectors (rows = windows). */
class FeatureMatrix
{
  public:
    FeatureMatrix() = default;

    /** A zero-initialized rows x cols matrix. */
    FeatureMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0; }

    /** Mutable pointer to row @p r (cols() contiguous doubles). */
    double *row(std::size_t r) { return data_.data() + r * cols_; }

    /** Const pointer to row @p r. */
    const double *row(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Copy row @p r out into an owning vector. */
    std::vector<double> rowVector(std::size_t r) const;

    /** The whole backing block, rows * cols doubles. */
    const std::vector<double> &data() const { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace rhmd::features

#endif // RHMD_FEATURES_MATRIX_HH
