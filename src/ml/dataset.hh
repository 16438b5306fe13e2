/**
 * @file
 * Labeled datasets and feature standardization.
 */

#ifndef RHMD_ML_DATASET_HH
#define RHMD_ML_DATASET_HH

#include <cstdint>
#include <vector>

#include "support/rng.hh"

namespace rhmd::ml
{

/**
 * A dense binary-labeled dataset. Label 1 means "malware" (the
 * detector's positive class) throughout the library.
 */
struct Dataset
{
    std::vector<std::vector<double>> x;
    std::vector<int> y;

    /** Append one example. */
    void add(std::vector<double> features, int label);

    /**
     * Append one example from a caller-owned row of @p n doubles —
     * the form streaming producers (corpus replay) use so the source
     * buffer can be reused across rows.
     */
    void add(const double *features, std::size_t n, int label);

    /** Number of examples. */
    std::size_t size() const { return x.size(); }

    bool empty() const { return x.empty(); }

    /** Feature dimensionality (0 when empty). */
    std::size_t dim() const { return x.empty() ? 0 : x.front().size(); }

    /** Count of label-1 examples. */
    std::size_t positives() const;

    /** Concatenate another dataset (dims must match). */
    void append(const Dataset &other);

    /** A new dataset with examples permuted by @p rng. */
    Dataset shuffled(Rng &rng) const;

    /** Panic unless all rows share the same dimensionality. */
    void validate() const;
};

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

    /** Fit on a dataset (requires at least one example). */
    static Standardizer fit(const Dataset &data);

    /** Transform one vector. */
    std::vector<double> apply(const std::vector<double> &v) const;

    /**
     * Transform @p row (@p n doubles) in place — the allocation-free
     * form of apply() used when filling feature-matrix rows. Panics
     * unless @p n == dim(): the caller's buffer length is part of
     * the call so a short row can never be standardized off its end.
     */
    void applyInPlace(double *row, std::size_t n) const;

    /** Transform a whole dataset. */
    Dataset transform(const Dataset &data) const;

    std::size_t dim() const { return mean.size(); }
};

} // namespace rhmd::ml

#endif // RHMD_ML_DATASET_HH
