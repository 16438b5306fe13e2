/**
 * @file
 * Pool-level certification: per-detector certified stability radii
 * aggregated through the switching policy into one provable number a
 * promotion gate can compare.
 *
 * RHMD's Theorem 1 (core/pac) bounds how well an attacker can
 * *learn* the pool; it says nothing about how far a single feature
 * vector must move to flip a decision. certifyPool() closes that gap
 * statically: for every epoch of the gate corpus it computes each
 * base detector's certified stability radius (certifier.hh) on the
 * window that detector would classify if selected, then folds the
 * radii through the switching policy:
 *
 *  - certifiedBound: mean over epochs of Σ_i p_i min(r_i, cap) —
 *    the policy-expected certified radius of the detector actually
 *    deciding an epoch. An attacker perturbing every window by less
 *    than a detector's radius provably cannot flip that detector's
 *    decision, so a larger bound means the pool is provably harder
 *    to evade on this corpus.
 *  - stableMass: mean over epochs of Σ_i p_i [r_i >= ε] — the
 *    probability (over the switch draw) that an ε-bounded
 *    perturbation provably changes nothing.
 *  - minRadius: the weakest certified window anywhere in the pool.
 *
 * Radii are measured in each detector's *standardized* feature space
 * (z-score units), which is what makes them comparable across
 * detectors with different feature vectors and periods.
 *
 * Determinism: radii come from fixed-iteration static analysis and
 * programs are merged in corpus order, so every field — and the
 * rhmd-certify output rendered from it — is bit-identical at any
 * thread count.
 */

#ifndef RHMD_ANALYSIS_CERTIFY_POOL_CERT_HH
#define RHMD_ANALYSIS_CERTIFY_POOL_CERT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/certify/certifier.hh"
#include "core/rhmd.hh"
#include "features/corpus.hh"
#include "support/status.hh"

namespace rhmd::analysis::certify
{

/** Knobs for pool certification. */
struct CertifyOptions
{
    /** ε for the stable-mass / stable-fraction statistics. */
    double referenceEpsilon = 0.25;

    /**
     * Cap (standardized units) applied to radii before averaging so
     * one saturated detector cannot dominate the pool bound; raw
     * radii still feed minRadius.
     */
    double radiusCap = 8.0;
};

/** Certified-radius statistics for one base detector. */
struct DetectorCertificate
{
    std::string label;               ///< Hmd::describe()
    std::size_t windows = 0;         ///< epochs certified
    std::size_t zeroMarginWindows = 0;
    double minRadius = 0.0;          ///< raw (uncapped) minimum
    double meanRadius = 0.0;         ///< mean of cap-clamped radii
    double medianRadius = 0.0;       ///< lower median, cap-clamped
    double stableFraction = 0.0;     ///< fraction with radius >= ε
};

/** The pool-level certificate. */
struct PoolCertificate
{
    std::vector<DetectorCertificate> detectors;
    std::size_t epochs = 0;
    double certifiedBound = 0.0;
    double stableMass = 0.0;
    double minRadius = 0.0;
    double referenceEpsilon = 0.0;
    double radiusCap = 0.0;

    /**
     * Audit + certification findings (certifier.hh codes). Error
     * findings mean the pool's parameters could not be certified at
     * all; the radius statistics are then zero and a promotion gate
     * must reject.
     */
    Report report;
};

/**
 * Certify @p pool over the epochs of the given test programs (the
 * same epoch/sub-window alignment core::computePac measures on).
 * Returns InvalidArgument for an empty @p test_idx. A pool whose
 * parameter audit fails is returned with the error findings and
 * zeroed statistics rather than as an error — the caller decides
 * whether findings are fatal.
 */
support::StatusOr<PoolCertificate>
certifyPool(const core::Rhmd &pool,
            const features::FeatureCorpus &corpus,
            const std::vector<std::size_t> &test_idx,
            const CertifyOptions &options = {});

/**
 * Certified promotion criterion (composes with core::checkPacFloor
 * in serve::PoolManager): rejects (FailedPrecondition) a @p candidate
 * whose parameter audit fails or whose certifiedBound falls more
 * than @p tolerance below the @p current pool's — i.e. a pool that
 * is provably *easier* to evade must not replace the one being
 * served. An incumbent that itself fails the audit never blocks
 * promotion of a clean candidate.
 */
support::Status
checkCertifiedFloor(const core::Rhmd &candidate,
                    const core::Rhmd &current,
                    const features::FeatureCorpus &corpus,
                    const std::vector<std::size_t> &test_idx,
                    double tolerance = 0.0,
                    const CertifyOptions &options = {});

} // namespace rhmd::analysis::certify

#endif // RHMD_ANALYSIS_CERTIFY_POOL_CERT_HH
