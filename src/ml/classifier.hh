/**
 * @file
 * The classifier interface every learning algorithm implements.
 */

#ifndef RHMD_ML_CLASSIFIER_HH
#define RHMD_ML_CLASSIFIER_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "features/matrix.hh"
#include "ml/dataset.hh"
#include "support/rng.hh"

namespace rhmd::ml
{

/**
 * A binary classifier. scoreBatch() returns positive-class (malware)
 * probability-like values in [0, 1]; callers choose the operating
 * threshold (typically via metrics::bestAccuracyThreshold to match
 * the paper's "point on the ROC which maximizes the accuracy").
 */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /**
     * Fit to the (already standardized) training data. @p rng drives
     * initialization and example ordering, making training fully
     * deterministic for a given seed.
     */
    virtual void train(const Dataset &data, Rng &rng) = 0;

    /**
     * Positive-class scores in [0, 1] for every row of @p x: exactly
     * rows() scores, in row order. The one scoring entry every family
     * implements (DESIGN.md section 11). A row's score does not
     * depend on the batch it arrives in (DESIGN.md section 14).
     */
    virtual std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const = 0;

    /** Positive-class score of one row: a one-row scoreBatch(). */
    double
    score(const std::vector<double> &x) const
    {
        features::FeatureMatrix row(1, x.size());
        std::copy(x.begin(), x.end(), row.row(0));
        return scoreBatch(row).front();
    }

    /** Deep copy (used to stamp out detector pools). */
    virtual std::unique_ptr<Classifier> clone() const = 0;

    /** Algorithm name, e.g. "LR", "NN", "DT", "SVM". */
    virtual std::string name() const = 0;

    /** Hard decision at a threshold. */
    int
    predict(const std::vector<double> &x, double threshold = 0.5) const
    {
        return score(x) >= threshold ? 1 : 0;
    }
};

} // namespace rhmd::ml

#endif // RHMD_ML_CLASSIFIER_HH
