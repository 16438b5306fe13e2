/**
 * @file
 * Service-level chaos injection: the fault machinery of
 * runtime/fault_injection lifted to the serving layer.
 *
 * runtime::FaultInjector injects faults into sensor reads and model
 * bytes, upstream of the service; a *service* additionally fails in
 * ways only a queue and a worker pool can — workers stall, batches
 * are delayed, detectors fail transiently under one request but not
 * the next, and candidate pools offered for promotion are garbage.
 * ChaosInjector models all of these as seeded perturbations so
 * `bench_serve_chaos` can assert the service's contracts *under*
 * fault pressure, reproducibly
 * (cf. Stochastic-HMDs: deployed perturbation as a first-class
 * experimental knob, here pointed at the serving layer).
 *
 * Two kinds of draw, deliberately separated:
 *
 *  - Schedule chaos (worker stalls, batch delays) perturbs only
 *    *timing*. It draws from a shared sequential stream; which worker
 *    stalls when is allowed to differ run to run.
 *
 *  - Score chaos (transient detector failures, broken detectors)
 *    perturbs *outcomes*, so it must not depend on the schedule: a
 *    transient fault fires as a pure function of (seed, request key,
 *    epoch, detector) via FaultInjector::keyedFault. Any worker, any
 *    batch composition, any swap timing — the same request sees the
 *    same faults, which is what keeps admitted decisions bit-identical
 *    per (key, pool version) while chaos is active.
 */

#ifndef RHMD_SERVE_CHAOS_HH
#define RHMD_SERVE_CHAOS_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "support/rng.hh"

namespace rhmd::serve
{

/**
 * Service-level fault rates; all default to "no chaos". The injector
 * is active when any rate is positive, a detector is broken or the
 * onBatchPlanned hook is set; otherwise every hook is a no-op.
 */
struct ChaosConfig
{
    /** Per-wake chance a worker stalls before draining a batch. */
    double workerStallProb = 0.0;

    /** Stall length in microseconds (real sleep; Timing only). */
    std::uint32_t workerStallMicros = 0;

    /** Per-batch chance scoring is delayed mid-flight. */
    double batchDelayProb = 0.0;

    /** Delay length in microseconds. */
    std::uint32_t batchDelayMicros = 0;

    /**
     * Per-(request key, epoch, detector) chance a score read fails
     * transiently (keyed-deterministic; the failover path redraws).
     */
    double transientScoreFaultProb = 0.0;

    /** Detectors whose scores always fail at the service boundary. */
    std::vector<std::size_t> brokenDetectors;

    /**
     * Test/observability hook: called once per planned batch with the
     * pool version the batch was planned against, after the snapshot
     * is taken and before scoring. Lets swap tests hold a batch
     * in-flight deterministically instead of racing sleeps.
     */
    std::function<void(std::uint64_t pool_version)> onBatchPlanned;

    /** Chaos stream seed (schedule draws only; score faults key off
     *  it statelessly). */
    std::uint64_t seed = 0xc4a05c4a05ULL;
};

/** The seeded service-fault source. Thread-safe. */
class ChaosInjector
{
  public:
    explicit ChaosInjector(const ChaosConfig &config);

    /** Maybe stall the calling worker (blocking sleep). */
    void maybeStallWorker();

    /** Maybe delay the current batch (blocking sleep). */
    void maybeDelayBatch();

    /**
     * Does the score of @p detector for (@p key, @p epoch) fail?
     * Pure function of the coordinates — schedule-independent.
     */
    bool scoreFault(std::uint64_t key, std::size_t epoch,
                    std::size_t detector) const;

    /** Invoke the onBatchPlanned hook, when configured. */
    void batchPlanned(std::uint64_t pool_version) const;

  private:
    bool roll(double prob);

    ChaosConfig config_;
    /** Any fault or hook configured; derived once at construction. */
    bool active_;
    std::mutex mutex_;
    Rng rng_;
};

} // namespace rhmd::serve

#endif // RHMD_SERVE_CHAOS_HH
