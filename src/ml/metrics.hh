/**
 * @file
 * Classification metrics: ROC curves, AUC, and the accuracy-optimal
 * threshold the paper uses as its HMD operating point.
 */

#ifndef RHMD_ML_METRICS_HH
#define RHMD_ML_METRICS_HH

#include <vector>

namespace rhmd::ml
{

/** One ROC operating point. */
struct RocPoint
{
    double threshold;
    double tpr;
    double fpr;
    double accuracy;
};

/** ROC curve plus summary statistics. */
struct RocCurve
{
    std::vector<RocPoint> points;  ///< descending threshold
    double auc = 0.0;
    double bestThreshold = 0.5;    ///< maximizes accuracy
    double bestAccuracy = 0.0;
    /** Maximizes balanced accuracy (TPR - FPR, Youden's J). */
    double bestBalancedThreshold = 0.5;
    double bestBalancedAccuracy = 0.0;  ///< (TPR + TNR) / 2 there
};

/**
 * Build the full ROC from scores and labels. Requires both classes
 * present. AUC is computed by the trapezoid rule over the exact
 * operating points (equivalently, the Mann-Whitney statistic).
 */
RocCurve rocCurve(const std::vector<double> &scores,
                  const std::vector<int> &labels);

} // namespace rhmd::ml

#endif // RHMD_ML_METRICS_HH
