/**
 * @file
 * Metrics implementation.
 */

#include "ml/metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::ml
{

RocCurve
rocCurve(const std::vector<double> &scores, const std::vector<int> &labels)
{
    panic_if(scores.size() != labels.size(), "rocCurve: size mismatch");
    fatal_if(scores.empty(), "rocCurve: empty input");

    std::size_t n_pos = 0;
    for (int label : labels)
        n_pos += label;
    const std::size_t n_neg = labels.size() - n_pos;
    fatal_if(n_pos == 0 || n_neg == 0,
             "rocCurve requires both classes present");

    // Sort by descending score; sweep the threshold across the
    // distinct score values.
    std::vector<std::size_t> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
        return scores[a] > scores[b];
    });

    RocCurve roc;
    roc.points.reserve(scores.size() + 2);

    std::size_t tp = 0;
    std::size_t fp = 0;
    double prev_fpr = 0.0;
    double prev_tpr = 0.0;
    double area = 0.0;

    // Threshold above every score: nothing flagged.
    roc.points.push_back({scores[order.front()] + 1.0, 0.0, 0.0,
                          static_cast<double>(n_neg) /
                              static_cast<double>(labels.size())});
    roc.bestAccuracy = roc.points.front().accuracy;
    roc.bestThreshold = roc.points.front().threshold;
    roc.bestBalancedAccuracy = 0.5;  // flag-nothing: TPR 0, TNR 1
    roc.bestBalancedThreshold = roc.points.front().threshold;

    std::size_t i = 0;
    while (i < order.size()) {
        const double value = scores[order[i]];
        // Consume ties together so the curve has one point per
        // distinct threshold.
        while (i < order.size() && scores[order[i]] == value) {
            if (labels[order[i]] == 1)
                ++tp;
            else
                ++fp;
            ++i;
        }
        const double tpr =
            static_cast<double>(tp) / static_cast<double>(n_pos);
        const double fpr =
            static_cast<double>(fp) / static_cast<double>(n_neg);
        const double accuracy =
            static_cast<double>(tp + (n_neg - fp)) /
            static_cast<double>(labels.size());

        area += (fpr - prev_fpr) * (tpr + prev_tpr) * 0.5;
        prev_fpr = fpr;
        prev_tpr = tpr;

        roc.points.push_back({value, tpr, fpr, accuracy});
        if (accuracy > roc.bestAccuracy) {
            roc.bestAccuracy = accuracy;
            roc.bestThreshold = value;
        }
        const double balanced = (tpr + (1.0 - fpr)) / 2.0;
        if (balanced > roc.bestBalancedAccuracy) {
            roc.bestBalancedAccuracy = balanced;
            roc.bestBalancedThreshold = value;
        }
    }

    roc.auc = area;
    return roc;
}

} // namespace rhmd::ml
