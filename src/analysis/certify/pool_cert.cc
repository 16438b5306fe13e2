/**
 * @file
 * Pool-level certification implementation.
 */

#include "analysis/certify/pool_cert.hh"

#include <algorithm>
#include <cmath>

#include "core/hmd.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace rhmd::analysis::certify
{

namespace
{

/** Cap-clamp one radius (infinities land on the cap). */
double
clamp(double radius, double cap)
{
    return std::min(radius, cap);
}

/** Lower median of an unsorted radius list (0 when empty). */
double
lowerMedian(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[(values.size() - 1) / 2];
}

} // namespace

support::StatusOr<PoolCertificate>
certifyPool(const core::Rhmd &pool,
            const features::FeatureCorpus &corpus,
            const std::vector<std::size_t> &test_idx,
            const CertifyOptions &options)
{
    if (test_idx.empty())
        return support::invalidArgumentError(
            "certifyPool needs test programs");
    if (options.radiusCap <= 0.0 || options.referenceEpsilon < 0.0)
        return support::invalidArgumentError(
            "certifyPool needs radiusCap > 0 and referenceEpsilon >= 0");

    const std::size_t n = pool.poolSize();
    const std::uint32_t epoch = pool.decisionPeriod();

    PoolCertificate cert;
    cert.referenceEpsilon = options.referenceEpsilon;
    cert.radiusCap = options.radiusCap;
    cert.detectors.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        cert.detectors[i].label = pool.detectors()[i]->describe();

    // Static parameter audit first: radii over NaN weights or a
    // mis-shaped standardizer would be meaningless.
    bool audit_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
        const core::Hmd &det = *pool.detectors()[i];
        if (!det.trained()) {
            cert.report.error("certify", "non-finite-weight", i,
                              kNoIndex, kNoIndex,
                              "detector is untrained");
            audit_ok = false;
            continue;
        }
        audit_ok &= auditModel(det.classifier(), det.standardizer(),
                               det.featureDim(), i, cert.report);
    }
    if (!audit_ok)
        return cert;

    // One task per test program; results are merged in corpus order,
    // so the certificate is independent of the worker count.
    struct ProgramPartial
    {
        /** radii[i] = detector i's radius per epoch, epoch order. */
        std::vector<std::vector<double>> radii;
    };
    const std::vector<ProgramPartial> partials =
        support::parallelMap<ProgramPartial>(
            test_idx.size(), [&](std::size_t p) {
                const features::ProgramFeatures &prog =
                    corpus.programs[test_idx[p]];
                ProgramPartial partial;
                partial.radii.assign(n, {});
                for (std::size_t i = 0; i < n; ++i) {
                    const core::Hmd &det = *pool.detectors()[i];
                    // The leading sub-window this detector would
                    // classify when selected for each epoch.
                    for (const features::RawWindow *window :
                         core::epochWindows(prog, epoch, det)) {
                        partial.radii[i].push_back(stabilityRadius(
                            det.classifier(), det.threshold(),
                            det.featureVector(*window)));
                    }
                }
                return partial;
            });

    const std::vector<double> &policy = pool.policy();
    std::vector<std::vector<double>> all_radii(n);
    double bound_sum = 0.0;
    double mass_sum = 0.0;
    double min_radius = kUnboundedRadius;
    std::size_t total_epochs = 0;

    for (std::size_t p = 0; p < partials.size(); ++p) {
        const ProgramPartial &partial = partials[p];
        const std::size_t n_epochs =
            partial.radii.empty() ? 0 : partial.radii.front().size();
        for (std::size_t e = 0; e < n_epochs; ++e) {
            double expected = 0.0;
            double mass = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double r = partial.radii[i][e];
                expected += policy[i] * clamp(r, options.radiusCap);
                if (r >= options.referenceEpsilon)
                    mass += policy[i];
                if (policy[i] > 0.0)
                    min_radius = std::min(min_radius, r);
                if (r == 0.0) {
                    cert.report.warning(
                        "certify", "zero-margin-window", i, p, e,
                        "window sits on the decision boundary of " +
                            cert.detectors[i].label + " in program " +
                            corpus.programs[test_idx[p]].name);
                }
            }
            bound_sum += expected;
            mass_sum += mass;
            ++total_epochs;
        }
        for (std::size_t i = 0; i < n; ++i) {
            all_radii[i].insert(all_radii[i].end(),
                                partial.radii[i].begin(),
                                partial.radii[i].end());
        }
    }

    if (total_epochs == 0)
        return support::invalidArgumentError(
            "certifyPool found no epochs in the test programs");

    cert.epochs = total_epochs;
    cert.certifiedBound =
        bound_sum / static_cast<double>(total_epochs);
    cert.stableMass = mass_sum / static_cast<double>(total_epochs);
    cert.minRadius = min_radius;

    for (std::size_t i = 0; i < n; ++i) {
        DetectorCertificate &det = cert.detectors[i];
        const std::vector<double> &radii = all_radii[i];
        det.windows = radii.size();
        if (radii.empty())
            continue;
        double raw_min = kUnboundedRadius;
        double capped_sum = 0.0;
        std::size_t stable = 0;
        std::size_t zero = 0;
        std::vector<double> capped;
        capped.reserve(radii.size());
        for (double r : radii) {
            raw_min = std::min(raw_min, r);
            capped.push_back(clamp(r, options.radiusCap));
            capped_sum += capped.back();
            if (r >= options.referenceEpsilon)
                ++stable;
            if (r == 0.0)
                ++zero;
        }
        det.minRadius = raw_min;
        det.meanRadius =
            capped_sum / static_cast<double>(radii.size());
        det.medianRadius = lowerMedian(std::move(capped));
        det.stableFraction = static_cast<double>(stable) /
                             static_cast<double>(radii.size());
        det.zeroMarginWindows = zero;
    }
    return cert;
}

support::Status
checkCertifiedFloor(const core::Rhmd &candidate,
                    const core::Rhmd &current,
                    const features::FeatureCorpus &corpus,
                    const std::vector<std::size_t> &test_idx,
                    double tolerance, const CertifyOptions &options)
{
    if (tolerance < 0.0)
        return support::invalidArgumentError(
            "certified floor tolerance must be >= 0");
    auto cand = certifyPool(candidate, corpus, test_idx, options);
    if (!cand.isOk())
        return cand.status();
    if (!cand->report.clean()) {
        return support::failedPreconditionError(
            "candidate pool failed the certification audit: ",
            cand->report.summary());
    }
    auto cur = certifyPool(current, corpus, test_idx, options);
    if (!cur.isOk())
        return cur.status();
    if (!cur->report.clean()) {
        // A broken incumbent must not be able to veto a certifiable
        // replacement.
        return support::Status();
    }
    if (cand->certifiedBound + tolerance < cur->certifiedBound) {
        return support::failedPreconditionError(
            "candidate pool worsens the certified evasion bound: ",
            cand->certifiedBound, " vs current ", cur->certifiedBound,
            " (tolerance ", tolerance, ")");
    }
    return support::Status();
}

} // namespace rhmd::analysis::certify
