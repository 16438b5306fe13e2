/**
 * @file
 * The closed-loop online retraining pipeline: the paper's Sec. 6
 * evade→retrain game run as a service (DESIGN.md §16).
 *
 * Offline, Figs. 11/13 show that retraining on evasive variants
 * restores RHMD's resilience. RetrainPipeline closes that loop
 * against live traffic in five stages:
 *
 *   1. detect  — a DriftDetector watches every served request's
 *                margin/fail-over signals (drift.hh), plus the
 *                current snapshot's quarantine count;
 *   2. capture — suspect programs stream into an RHMD-CORPUS spool
 *                via the FlightRecorder (recorder.hh) so retraining
 *                replays exactly the windows serving scored;
 *   3. retrain — core::retrainPool rebuilds a candidate pool on
 *                ground truth plus the drained suspects, in the
 *                background on the deterministic thread pool;
 *   4. shadow  — the candidate is installed on the service's shadow
 *                lane and scored against live traffic on a
 *                non-serving pool until it has seen enough requests;
 *   5. promote — the candidate goes through PoolManager::swapPool(),
 *                gated on core::checkPacFloor (Theorem 1) and, when
 *                configured, the certified evasion floor — it serves
 *                only if its provable floor did not regress.
 *
 * Determinism domains: stages 1–3 are pure functions of the
 * observation sequence and the retrain seed — same reports in the
 * same order give the same drift verdicts, the same spool bytes, and
 * (SplitRng per-detector streams) a bit-identical candidate at any
 * thread count. Stage 4's verdict is deterministic in the *set* of
 * (key, program) pairs shadow-scored; stage 5 is deterministic given
 * the candidate and gate corpus. The pipeline.* counters therefore
 * sit in the Deterministic metrics domain, and the retrain-loop
 * bench byte-diffs its generation table across thread counts.
 *
 * Captured suspects are labeled malware when retraining — the
 * operating assumption of the paper's game is that margin-collapsed
 * benign-decided traffic *is* the attacker's evasive output. The
 * PAC/certified gate is what keeps a mislabeled capture from
 * shipping: a candidate degraded by bad labels fails the floor
 * comparison and the incumbent keeps serving.
 */

#ifndef RHMD_PIPELINE_PIPELINE_HH
#define RHMD_PIPELINE_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/retrainer.hh"
#include "pipeline/drift.hh"
#include "pipeline/recorder.hh"
#include "serve/service.hh"
#include "support/status.hh"

namespace rhmd::pipeline
{

/**
 * Minimum live-vs-candidate program-decision agreement on the shadow
 * lane. A retrained candidate is *supposed* to disagree on the
 * evasive slice (that is the point), so this is a sanity floor
 * against degenerate candidates (e.g. flag-everything), not a
 * similarity requirement.
 */
constexpr double kShadowMinAgreement = 0.5;

/** Closed-loop knobs. */
struct PipelineConfig
{
    DriftConfig drift{};

    /** Candidate-pool shape; generation is managed by the pipeline. */
    core::PoolRetrainConfig retrain{};

    /** Flight-recorder spool (path + capture periods). */
    RecorderConfig recorder{};

    /** Live requests the shadow lane must score before a verdict. */
    std::size_t shadowMinRequests = 32;
};

/** What one step() of the loop did (fields in stage order). */
struct StepReport
{
    bool driftFired = false;       ///< drift verdict this step
    bool retrained = false;        ///< a candidate was built
    std::size_t flaggedPrograms = 0; ///< suspects drained into it
    bool shadowEvaluated = false;  ///< shadow verdict reached
    double shadowAgreement = -1.0; ///< live-vs-candidate agreement
    bool promoted = false;         ///< candidate now serving
    support::Status gate; ///< rejection reason
    std::uint64_t poolVersion = 0; ///< serving version after the step
};

/**
 * Drives the detect→capture→retrain→shadow→promote loop over one
 * DetectionService. The caller feeds every answered request through
 * observe() and calls step() at its own cadence (per wave, per
 * timer); the pipeline never blocks serving — retraining runs on the
 * caller's step() thread via the deterministic pool, and promotion
 * uses the service's zero-downtime swap.
 *
 * Thread-safe: observe() and step() may race; both serialize on an
 * internal mutex. step() holds it through a retrain, so observers
 * stall for that step's duration — serving itself never does, since
 * workers don't touch the pipeline.
 */
class RetrainPipeline
{
  public:
    /**
     * @param service   the serving front end to watch and promote
     *                  into; must outlive the pipeline.
     * @param base      ground-truth corpus retraining starts from;
     *                  must outlive the pipeline.
     * @param train_idx programs of @p base to train candidates on.
     * @param config    loop knobs; recorder.periods must cover every
     *                  retrain spec period.
     */
    RetrainPipeline(serve::DetectionService &service,
                    const features::FeatureCorpus &base,
                    std::vector<std::size_t> train_idx,
                    PipelineConfig config);

    /** Loop state: watching traffic, or evaluating a candidate. */
    enum class Phase
    {
        Monitoring,
        Shadowing,
    };

    /**
     * Feed one answered request: folds the report into the drift
     * window and, when it is a suspect, captures @p prog into the
     * flight recorder. @p prog and @p report must be the submit()
     * arguments and its resolved report.
     */
    void observe(const features::ProgramFeatures &prog,
                 const serve::ServeReport &report);

    /**
     * Advance the loop one step. Monitoring: when drift fired and
     * suspects were captured, drain the recorder, retrain a
     * candidate, and install it on the shadow lane. Shadowing: once
     * the shadow lane saw shadowMinRequests, evaluate agreement and
     * either promote through swapPool() or discard the candidate.
     * Always returns a report (gate carries any rejection); only
     * infrastructure failures (spool I/O, invalid retrain config)
     * surface as an error status.
     */
    support::StatusOr<StepReport> step();

    Phase phase() const;

    /** Retrain rounds started so far. */
    std::uint64_t generation() const;

    /**
     * The most recent candidate (mutable — callers may need
     * Detector access for offline evaluation or reverse-engineering
     * studies; the service only ever sees it const). Null before the
     * first retrain.
     */
    std::shared_ptr<core::Rhmd> candidatePool() const;

    /** Drift window snapshot (stats of the current window). */
    DriftStats driftStats() const;

    /** Suspects captured in the current recorder cycle. */
    std::size_t capturedPrograms() const;

  private:
    serve::DetectionService &service_;
    const features::FeatureCorpus &base_;
    std::vector<std::size_t> trainIdx_;
    PipelineConfig config_;

    mutable std::mutex mutex_;
    DriftDetector drift_;
    FlightRecorder recorder_;
    Phase phase_ = Phase::Monitoring;
    std::uint64_t generation_ = 0;
    std::shared_ptr<core::Rhmd> candidate_;
    std::size_t candidateFlagged_ = 0;
};

} // namespace rhmd::pipeline

#endif // RHMD_PIPELINE_PIPELINE_HH
