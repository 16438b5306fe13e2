/**
 * @file
 * PAC bound computation.
 */

#include "core/pac.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::core
{

PacReport
computePac(const Rhmd &pool, const features::FeatureCorpus &corpus,
           const std::vector<std::size_t> &test_idx)
{
    const std::size_t n = pool.poolSize();
    const std::uint32_t epoch = pool.decisionPeriod();
    fatal_if(test_idx.empty(), "computePac needs test programs");

    PacReport report;
    report.baseErrors.assign(n, 0.0);
    report.disagreement.assign(n, std::vector<double>(n, 0.0));

    // Every test epoch, programs in order, with its ground truth.
    std::vector<int> truth;
    for (std::size_t idx : test_idx) {
        const features::ProgramFeatures &prog = corpus.programs[idx];
        truth.insert(truth.end(), prog.windows(epoch).size(),
                     prog.malware ? 1 : 0);
    }
    const std::size_t total_epochs = truth.size();
    fatal_if(total_epochs == 0, "no epochs in the test programs");

    // Each base detector's decision for every epoch: its own leading
    // sub-window, as when it is the selected one, scored in one pass.
    std::vector<std::vector<int>> decisions(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Hmd &det = *pool.detectors()[i];
        std::vector<const features::RawWindow *> rows;
        rows.reserve(total_epochs);
        for (std::size_t idx : test_idx) {
            const std::vector<const features::RawWindow *> windows =
                epochWindows(corpus.programs[idx], epoch, det);
            rows.insert(rows.end(), windows.begin(), windows.end());
        }
        for (double score : det.scoreWindows(rows))
            decisions[i].push_back(det.decision(score));
    }

    std::vector<std::vector<double>> disagree_counts(
        n, std::vector<double>(n, 0.0));
    std::vector<double> error_counts(n, 0.0);
    for (std::size_t k = 0; k < total_epochs; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            error_counts[i] += decisions[i][k] != truth[k] ? 1.0 : 0.0;
            for (std::size_t j = i + 1; j < n; ++j) {
                if (decisions[i][k] != decisions[j][k]) {
                    disagree_counts[i][j] += 1.0;
                    disagree_counts[j][i] += 1.0;
                }
            }
        }
    }

    const double denom = static_cast<double>(total_epochs);
    for (std::size_t i = 0; i < n; ++i) {
        report.baseErrors[i] = error_counts[i] / denom;
        for (std::size_t j = 0; j < n; ++j)
            report.disagreement[i][j] = disagree_counts[i][j] / denom;
    }

    const std::vector<double> &policy = pool.policy();
    report.baselinePoolError = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        report.baselinePoolError += policy[i] * report.baseErrors[i];

    // Lower bound: the attacker's best single hypothesis can at best
    // match one base detector exactly; it still errs (w.r.t. the
    // randomized labels) whenever a *different* detector is selected
    // and disagrees.
    report.lowerBound = 2.0;
    for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i)
                sum += policy[j] * report.disagreement[i][j];
        }
        report.lowerBound = std::min(report.lowerBound, sum);
    }

    report.upperBound =
        2.0 * *std::max_element(report.baseErrors.begin(),
                                report.baseErrors.end());
    return report;
}

support::Status
checkPacFloor(const Rhmd &candidate, const Rhmd &current,
              const features::FeatureCorpus &corpus,
              const std::vector<std::size_t> &test_idx, double tolerance)
{
    fatal_if(tolerance < 0.0, "PAC floor tolerance must be >= 0");
    // An empty gate corpus is a data-plane condition (mis-built split,
    // drained corpus), not a caller bug: surface it as a rejection the
    // promotion path can report instead of killing the server.
    if (test_idx.empty()) {
        return support::invalidArgumentError(
            "PAC floor check needs test programs");
    }
    const PacReport cand = computePac(candidate, corpus, test_idx);
    const PacReport cur = computePac(current, corpus, test_idx);
    if (cand.lowerBound + tolerance < cur.lowerBound) {
        return support::failedPreconditionError(
            "candidate pool worsens the provable reverse-engineering "
            "floor: Theorem-1 lower bound ",
            cand.lowerBound, " vs current ", cur.lowerBound,
            " (tolerance ", tolerance, ")");
    }
    return support::Status();
}

} // namespace rhmd::core
