/**
 * @file
 * Labeled datasets and feature standardization.
 */

#ifndef RHMD_ML_DATASET_HH
#define RHMD_ML_DATASET_HH

#include <vector>

#include "features/matrix.hh"

namespace rhmd::ml
{

/**
 * A dense binary-labeled dataset: one row of x per example, in the
 * row-major matrix scoring reads. Label 1 means "malware" (the
 * detector's positive class) throughout the library.
 */
struct Dataset
{
    features::FeatureMatrix x;
    std::vector<int> y;

    /**
     * Append one example. The first example sets dim(); every later
     * one must match it.
     */
    void add(const std::vector<double> &features, int label);

    /** Number of examples. */
    std::size_t size() const { return x.rows(); }

    bool empty() const { return x.empty(); }

    /** Feature dimensionality. */
    std::size_t dim() const { return x.cols(); }

    /** Panic unless x and y hold the same number of examples. */
    void validate() const;
};

/**
 * Count one SGD trainer run, @p epochs passes over every row of
 * @p data, in the Deterministic counter ml.train_samples.
 */
void countTrainSamples(const Dataset &data, std::size_t epochs);

/**
 * Per-feature z-score standardizer. Fitted on training data; the
 * same transform must be applied to every vector scored later.
 * Features with (near-)zero variance get scale 1 so they pass
 * through centred but unscaled.
 */
struct Standardizer
{
    std::vector<double> mean;
    std::vector<double> scale;

    /** Fit on the rows of @p x (requires at least one row). */
    static Standardizer fit(const features::FeatureMatrix &x);

    /**
     * Transform @p row (@p n doubles) in place: the one transform,
     * used on training and scoring rows alike. Panics unless
     * @p n == dim(): the caller's buffer length is part of the call
     * so a short row can never be standardized off its end.
     */
    void applyInPlace(double *row, std::size_t n) const;

    std::size_t dim() const { return mean.size(); }
};

} // namespace rhmd::ml

#endif // RHMD_ML_DATASET_HH
