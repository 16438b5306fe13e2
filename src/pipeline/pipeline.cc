/**
 * @file
 * Retrain-pipeline orchestrator implementation.
 */

#include "pipeline/pipeline.hh"

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace rhmd::pipeline
{

namespace
{

// Loop outcomes are pure functions of the observation sequence, the
// retrain seed, and the gate corpus (see the pipeline.hh determinism
// note), so all of these are Deterministic-domain.

struct PipelineCounters
{
    support::Counter &driftFired = support::metrics().counter(
        "pipeline.drift_fired",
        "drift verdicts that opened a retrain cycle");
    support::Counter &retrains = support::metrics().counter(
        "pipeline.retrains", "candidate pools retrained");
    support::Counter &promotions = support::metrics().counter(
        "pipeline.promotions",
        "candidates promoted to serving through swapPool");
    support::Counter &rejectedGate = support::metrics().counter(
        "pipeline.rejected_gate",
        "candidates rejected by the PAC/certified promotion gate");
    support::Counter &rejectedShadow = support::metrics().counter(
        "pipeline.rejected_shadow",
        "candidates discarded by the shadow-agreement floor");
};

PipelineCounters &
pipelineCounters()
{
    static PipelineCounters counters;
    return counters;
}

} // namespace

RetrainPipeline::RetrainPipeline(serve::DetectionService &service,
                                 const features::FeatureCorpus &base,
                                 std::vector<std::size_t> train_idx,
                                 PipelineConfig config)
    : service_(service), base_(base), trainIdx_(std::move(train_idx)),
      config_(std::move(config)), drift_(config_.drift),
      recorder_(config_.recorder)
{
    fatal_if(trainIdx_.empty(),
             "RetrainPipeline needs training programs");
    fatal_if(config_.retrain.specs.empty(),
             "RetrainPipeline needs retrain detector specs");
    fatal_if(config_.shadowMinRequests == 0,
             "RetrainPipeline shadowMinRequests must be > 0");
    // Every retrain period must be capturable, or the candidate would
    // train on ground truth while the suspects silently vanish.
    for (const features::FeatureSpec &spec : config_.retrain.specs) {
        bool covered = false;
        for (std::uint32_t period : config_.recorder.periods)
            covered = covered || period == spec.period;
        fatal_if(!covered, "retrain spec period ", spec.period,
                 " is not captured by the flight recorder");
    }
}

void
RetrainPipeline::observe(const features::ProgramFeatures &prog,
                         const serve::ServeReport &report)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    DriftObservation obs;
    obs.programDecision = report.programDecision;
    obs.meanMargin = report.meanMargin;
    obs.detectorFailures = report.detectorFailures;
    obs.degraded = report.degraded;
    drift_.observe(obs);
    if (!drift_.suspect(obs))
        return;
    const support::Status captured = recorder_.flag(prog);
    // A full recorder is expected under a suspect flood (the ceiling
    // exists exactly for that); anything else is spool I/O trouble
    // worth a line.
    if (!captured.isOk() && recorder_.droppedPrograms() == 0)
        warn("flight recorder capture failed: " + captured.toString());
}

support::StatusOr<StepReport>
RetrainPipeline::step()
{
    const support::ScopedSpan span("pipeline_step");
    PipelineCounters &counters = pipelineCounters();
    const std::lock_guard<std::mutex> lock(mutex_);

    StepReport report;
    report.poolVersion = service_.poolVersion();

    if (phase_ == Phase::Monitoring) {
        // A quarantined detector in the serving snapshot is a drift
        // signal too.
        if (!drift_.drifted() &&
            service_.healthSnapshot().quarantinedCount() == 0)
            return report;
        report.driftFired = true;
        counters.driftFired.add(1);

        if (recorder_.empty()) {
            // Drift without captured suspects (pure fail-over or
            // quarantine churn): nothing to retrain *on* yet. Clear
            // the window so the verdict re-arms on fresh traffic.
            drift_.reset();
            report.gate = support::failedPreconditionError(
                "drift fired with no captured suspects; retrain "
                "skipped");
            return report;
        }

        support::StatusOr<features::FeatureCorpus> flagged =
            recorder_.drain();
        if (!flagged.isOk())
            return flagged.status();
        report.flaggedPrograms = flagged->programs.size();
        candidateFlagged_ = flagged->programs.size();

        core::PoolRetrainConfig retrain = config_.retrain;
        retrain.generation = ++generation_;
        support::StatusOr<std::unique_ptr<core::Rhmd>> candidate =
            core::retrainPool(base_, trainIdx_, flagged->programs,
                              retrain);
        if (!candidate.isOk())
            return candidate.status();
        counters.retrains.add(1);
        report.retrained = true;

        candidate_ = std::shared_ptr<core::Rhmd>(
            std::move(*candidate));
        const support::Status installed =
            service_.installShadow(candidate_);
        if (!installed.isOk())
            return installed;
        phase_ = Phase::Shadowing;
        return report;
    }

    // Shadowing: wait for enough live traffic, then judge.
    const serve::ShadowStats shadow = service_.shadowStats();
    if (shadow.requests < config_.shadowMinRequests)
        return report;

    report.shadowEvaluated = true;
    report.shadowAgreement =
        static_cast<double>(shadow.agreements) /
        static_cast<double>(shadow.requests);
    service_.clearShadow();

    if (report.shadowAgreement < kShadowMinAgreement) {
        counters.rejectedShadow.add(1);
        report.gate = support::failedPreconditionError(
            "candidate discarded: shadow agreement ",
            report.shadowAgreement, " below the ",
            kShadowMinAgreement, " floor over ",
            shadow.requests, " requests");
        drift_.reset();
        phase_ = Phase::Monitoring;
        return report;
    }

    const support::StatusOr<std::uint64_t> promoted =
        service_.swapPool(candidate_);
    if (promoted.isOk()) {
        counters.promotions.add(1);
        report.promoted = true;
        report.poolVersion = *promoted;
    } else {
        counters.rejectedGate.add(1);
        report.gate = promoted.status();
        report.poolVersion = service_.poolVersion();
    }
    drift_.reset();
    phase_ = Phase::Monitoring;
    return report;
}

RetrainPipeline::Phase
RetrainPipeline::phase() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return phase_;
}

std::uint64_t
RetrainPipeline::generation() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

std::shared_ptr<core::Rhmd>
RetrainPipeline::candidatePool() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return candidate_;
}

DriftStats
RetrainPipeline::driftStats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return drift_.stats();
}

std::size_t
RetrainPipeline::capturedPrograms() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return recorder_.programCount();
}

} // namespace rhmd::pipeline
