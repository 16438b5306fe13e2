/**
 * @file
 * Contiguous feature matrix for batched scoring: row-major rows plus
 * an optional padded column-major (SoA) view.
 *
 * Every classifier scores through Classifier::scoreBatch() on one of
 * these: a whole batch laid out as one contiguous row-major block, so
 * the scalar kernels walk rows with a plain pointer loop. Each row's
 * accumulation order is independent of the batch, so a window scores
 * the same alone or in any batch (the determinism gates rely on it).
 *
 * buildSoa() adds the structure-of-arrays view the vector kernels
 * (src/ml/kernels.hh) consume: each feature column is a contiguous
 * run of paddedRows() doubles, with rows padded up to a multiple of
 * simd::kMaxLanes so any lane width can run full vectors over the
 * tail. Padding rows are zero-filled and are NOT windows: kernels
 * may compute garbage lanes over them, but no score or decision for
 * a padding row ever leaves the kernel — callers read exactly
 * rows() outputs (DESIGN.md section 14).
 */

#ifndef RHMD_FEATURES_MATRIX_HH
#define RHMD_FEATURES_MATRIX_HH

#include <cstddef>
#include <vector>

#include "support/simd.hh"

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

    /**
     * Materialize (or refresh) the padded column-major view from the
     * current row-major contents. Call after the rows are fully
     * filled; mutating rows afterwards leaves the view stale until
     * the next buildSoa(). Idempotent.
     */
    void buildSoa();

    /** True once buildSoa() has run (also true for an empty matrix). */
    bool hasSoa() const { return rows_ == 0 || !soa_.empty(); }

    /**
     * Row count of the SoA view: rows() rounded up to a multiple of
     * simd::kMaxLanes (0 for an empty matrix). Kernel output buffers
     * are sized to this so full-width stores never trample memory,
     * but entries past rows() are padding, never results.
     */
    std::size_t paddedRows() const { return paddedRows_; }

    /**
     * Column @p j of the SoA view: paddedRows() contiguous doubles,
     * zero-filled past rows(). Panics unless buildSoa() has run.
     */
    const double *col(std::size_t j) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
    std::size_t paddedRows_ = 0;
    std::vector<double> soa_;
};

} // namespace rhmd::features

#endif // RHMD_FEATURES_MATRIX_HH
