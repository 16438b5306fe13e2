/**
 * @file
 * Detection runtime implementation.
 */

#include "runtime/runtime.hh"

#include <cmath>

#include "analysis/verifier.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::runtime
{

namespace
{

bool
validScore(double score)
{
    return std::isfinite(score) && score >= 0.0 && score <= 1.0;
}

// One runtime counter per RuntimeReport field (plus admission): each
// processProgram call folds its report into the process-wide totals,
// so a deployment's fault pressure is visible in one snapshot without
// threading reports through every caller. Fault injection draws from
// the runtime's seeded rng, so these are Deterministic.

support::Counter &
runtimeCounter(const char *name, const char *help)
{
    return support::metrics().counter(name, help);
}

struct RuntimeCounters
{
    support::Counter &programs = runtimeCounter(
        "runtime.programs", "programs processed by DetectionRuntime");
    support::Counter &failedPrograms = runtimeCounter(
        "runtime.failed_programs",
        "programs where no epoch could be classified");
    support::Counter &epochs = runtimeCounter(
        "runtime.epochs", "decision epochs attempted");
    support::Counter &classified = runtimeCounter(
        "runtime.classified", "decision epochs classified");
    support::Counter &dropped = runtimeCounter(
        "runtime.dropped", "epochs lost to sensor-path window loss");
    support::Counter &truncated = runtimeCounter(
        "runtime.truncated", "windows delivered truncated");
    support::Counter &sensorRetries = runtimeCounter(
        "runtime.sensor_retries", "sensor reads retried with backoff");
    support::Counter &detectorFailures = runtimeCounter(
        "runtime.detector_failures",
        "invalid detector scores failed over");
    support::Counter &admitted = runtimeCounter(
        "runtime.admitted", "programs passing admission verification");
    support::Counter &rejected = runtimeCounter(
        "runtime.rejected", "programs rejected at admission");
};

RuntimeCounters &
runtimeCounters()
{
    static RuntimeCounters counters;
    return counters;
}

} // namespace

DetectionRuntime::DetectionRuntime(const core::Rhmd &pool,
                                   const RuntimeConfig &config)
    : pool_(pool), config_(config), injector_(config.faults),
      health_(pool.poolSize(), config.health), rng_(config.seed),
      selectionCounts_(pool.poolSize(), 0)
{
}

support::Status
DetectionRuntime::admitProgram(const trace::Program &prog)
{
    const analysis::Report report = analysis::verifyProgram(prog);
    if (!report.clean()) {
        ++rejectedPrograms_;
        runtimeCounters().rejected.add(1);
        for (const analysis::Finding &finding : report.findings()) {
            if (finding.severity == analysis::Severity::Error)
                return support::invalidArgumentError(
                    "program rejected at admission (", report.summary(),
                    "): [", finding.pass, "/", finding.code, "] ",
                    finding.message);
        }
    }
    ++admittedPrograms_;
    runtimeCounters().admitted.add(1);
    return support::Status();
}

support::StatusOr<features::RawWindow>
DetectionRuntime::readWindow(const features::ProgramFeatures &prog,
                             const core::Hmd &det,
                             std::size_t epoch_index,
                             RuntimeReport &report)
{
    const features::RawWindow *source =
        core::epochWindow(prog, pool_.decisionPeriod(), det, epoch_index);
    if (source == nullptr) {
        // The stream ended early at this period (truncated trace);
        // a lost window, not a library bug.
        return support::dataLossError("no window for epoch ",
                                      epoch_index, " at period ",
                                      det.decisionPeriod());
    }

    support::RetryStats stats;
    auto result = support::retryWithBackoff(
        config_.sensorRetry,
        [&]() -> support::StatusOr<features::RawWindow> {
            if (injector_.transientReadFailure())
                return support::unavailableError(
                    "transient sensor-read failure");
            features::RawWindow window = *source;
            switch (injector_.perturbWindow(window)) {
              case WindowFault::Dropped:
                return support::dataLossError("window dropped");
              case WindowFault::Truncated:
                ++report.truncated;
                return window;
              case WindowFault::None:
                return window;
            }
            rhmd_panic("bad window fault");
        },
        &stats);
    report.sensorRetries += stats.retries;
    report.backoffSpent += stats.backoffSpent;
    return result;
}

support::StatusOr<RuntimeReport>
DetectionRuntime::processProgram(const features::ProgramFeatures &prog)
{
    RuntimeReport report;
    const std::uint32_t epoch_len = pool_.decisionPeriod();
    report.epochs = prog.windows(epoch_len).size();

    // Fold this report into the process-wide totals on every exit
    // path, so aborted programs still show up in the snapshot.
    RuntimeCounters &counters = runtimeCounters();
    counters.programs.add(1);
    const auto fold = [&report, &counters] {
        counters.epochs.add(report.epochs);
        counters.classified.add(report.classified);
        counters.dropped.add(report.dropped);
        counters.truncated.add(report.truncated);
        counters.sensorRetries.add(report.sensorRetries);
        counters.detectorFailures.add(report.detectorFailures);
    };

    // One epoch may take several draws: an invalid score fails over
    // to another available detector instead of losing the epoch
    // outright, within the capped failoverBudget.
    const std::size_t max_attempts = failoverBudget(
        pool_.poolSize(), config_.health.failureThreshold);
    for (std::size_t e = 0; e < report.epochs; ++e) {
        health_.tick();
        bool decided = false;
        bool windowLost = false;
        for (std::size_t attempt = 0;
             attempt < max_attempts && !decided && !windowLost;
             ++attempt) {
            auto policy = health_.effectivePolicy(pool_.policy());
            if (!policy.isOk()) {
                ++failedPrograms_;
                counters.failedPrograms.add(1);
                fold();
                return policy.status();
            }
            const std::size_t pick = rng_.weightedIndex(*policy);
            ++selectionCounts_[pick];
            const core::Hmd &det = *pool_.detectors()[pick];

            auto window = readWindow(prog, det, e, report);
            if (!window.isOk()) {
                // Sensor-path loss: the epoch is gone no matter
                // which detector we pick.
                ++report.dropped;
                windowLost = true;
                break;
            }

            const double score = injector_.perturbScore(
                pick, det.windowScore(*window));
            if (!validScore(score)) {
                ++report.detectorFailures;
                health_.recordFailure(
                    pick, rhmd::detail::concat("invalid score ", score,
                                               " at epoch ",
                                               health_.epoch()));
                continue;
            }
            health_.recordSuccess(pick);
            report.decisions.push_back(score >= det.threshold() ? 1
                                                                : 0);
            ++report.classified;
            decided = true;
        }
    }

    fold();
    if (report.decisions.empty()) {
        ++failedPrograms_;
        counters.failedPrograms.add(1);
        return support::unavailableError(
            "no epoch of '", prog.name, "' could be classified (",
            report.dropped, " of ", report.epochs,
            " windows lost, ", report.detectorFailures,
            " detector failures)");
    }

    report.programDecision = core::majorityVote(report.decisions);
    return report;
}

double
DetectionRuntime::detectionRate(
    const std::vector<const features::ProgramFeatures *> &programs)
{
    fatal_if(programs.empty(),
             "detectionRate needs at least one program");
    std::size_t detected = 0;
    std::size_t failed = 0;
    for (const auto *prog : programs) {
        panic_if(prog == nullptr, "null program in detectionRate");
        auto report = processProgram(*prog);
        if (!report.isOk()) {
            // Fail-open: an unclassifiable program counts as
            // not-detected, but that must not be silent — warn on the
            // first failure (the rest are visible in
            // runtime.failed_programs) so a degraded deployment's
            // detection rate is not mistaken for a clean one.
            if (failed == 0)
                warn(rhmd::detail::concat(
                    "detectionRate: program '", prog->name,
                    "' counted as not-detected: ",
                    report.status().toString()));
            ++failed;
            continue;
        }
        if (report->programDecision == 1)
            ++detected;
    }
    return static_cast<double>(detected) /
           static_cast<double>(programs.size());
}

} // namespace rhmd::runtime
