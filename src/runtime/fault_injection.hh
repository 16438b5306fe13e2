/**
 * @file
 * Deterministic, seeded fault injection for the sensor and model
 * paths of a deployed detector.
 *
 * A deployed HMD does not see the clean-lab feature stream: counter
 * reads are noisy, counters get stuck, reads fail
 * transiently, epochs are lost or windows truncated when the
 * collection logic is preempted, and model bytes can be corrupted in
 * storage or transit. This layer models those faults as seeded,
 * per-experiment-configurable perturbations so the fault-tolerance
 * benchmarks are reproducible (cf. Stochastic-HMDs, arXiv:2103.06936,
 * on hardware-induced stochasticity in deployed HMDs). Sensor faults
 * enter in one place, FaultInjector::sense(), whose output is the
 * stream a deployment submits to serve::DetectionService; detector
 * score faults are the service's own (serve::ChaosConfig).
 */

#ifndef RHMD_RUNTIME_FAULT_INJECTION_HH
#define RHMD_RUNTIME_FAULT_INJECTION_HH

#include <cstdint>
#include <optional>
#include <string>

#include "features/corpus.hh"
#include "features/window.hh"
#include "support/retry.hh"
#include "support/rng.hh"
#include "uarch/perf_counters.hh"

namespace rhmd::runtime
{

/** Per-experiment fault rates; all default to "no faults". */
struct FaultConfig
{
    /** Relative Gaussian noise on every counter value (sigma). */
    double counterNoiseSigma = 0.0;

    /**
     * Per-window chance that one architectural counter sticks at
     * its current value for the rest of the run.
     */
    double stuckCounterProb = 0.0;

    /** Per-epoch chance the sensor loses the epoch at every period. */
    double dropWindowProb = 0.0;

    /** Per-window chance a window is cut short (partial collection). */
    double truncateWindowProb = 0.0;

    /** Surviving fraction of a truncated window. */
    double truncateFrac = 0.5;

    /**
     * Per-attempt chance a sensor read fails transiently; sense()
     * retries such reads under its backoff policy.
     */
    double transientReadFailProb = 0.0;

    /** Per-byte corruption rate for corruptText(). */
    double byteFlipRate = 0.0;

    /** Fault-stream seed; same config + seed => same faults. */
    std::uint64_t seed = 1;
};

/** What happened to one window's content. */
enum class WindowFault : std::uint8_t
{
    None,
    Truncated,
};

/** What FaultInjector::sense() observed; accumulates across calls. */
struct SenseReport
{
    /** Epochs in the clean streams. */
    std::size_t epochs = 0;

    /** Epochs lost to drops or to reads whose retries ran out. */
    std::size_t dropped = 0;

    /** Windows delivered truncated. */
    std::size_t truncated = 0;

    /** Read retries and the virtual backoff they waited. */
    support::RetryStats retry;
};

/**
 * The seeded fault source. One injector models the fault behaviour
 * of one deployment; all draws come from a private xoshiro stream so
 * runs are reproducible.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    /**
     * The sensor read of one program: the stream a faulty sensor
     * delivers from @p prog's clean windows, for a pool whose epoch
     * length is @p epoch. Each epoch is read once; a transient
     * failure is retried under @p retry. A drop, or a read whose
     * retries run out, loses the epoch at every period: its windows
     * are left out, so later epochs move up and the shorter stream
     * still lines up across periods. Every window of a surviving
     * epoch, at every period dividing @p epoch, passes through
     * perturbWindow(). Every period key of @p prog stays in the
     * result, even when every epoch was lost; periods that do not
     * divide @p epoch come back empty. Adds what it observed to
     * @p report.
     */
    features::ProgramFeatures sense(const features::ProgramFeatures &prog,
                                    std::uint32_t epoch,
                                    const support::RetryPolicy &retry,
                                    SenseReport &report);

    /**
     * Apply the per-window content faults in place (truncation,
     * noise, stuck counter).
     */
    WindowFault perturbWindow(features::RawWindow &window);

    /** Roll the transient sensor-read failure. */
    bool transientReadFailure();

    /** Corrupt a serialized-model (or any) text buffer. */
    std::string corruptText(const std::string &text);

    /**
     * Stateless keyed Bernoulli: whether a fault of probability
     * @p prob fires at the (seed, key, epoch, detector) coordinate.
     * Unlike the injector's sequential stream, the draw is a pure
     * function of its coordinates, so layers that must stay
     * schedule-independent (the serving chaos harness, which promises
     * bit-identical decisions per request key across worker counts)
     * can consult it from any thread, in any order, and get the same
     * answer.
     */
    static bool keyedFault(std::uint64_t seed, std::uint64_t key,
                           std::uint64_t epoch, std::uint64_t detector,
                           double prob);

    const FaultConfig &config() const { return config_; }

  private:
    std::uint64_t perturbCount(std::uint64_t value);
    void perturbCounts(uarch::EventCounts &events);

    FaultConfig config_;
    Rng rng_;

    /** Once set: (event index, frozen value). */
    std::optional<std::pair<std::size_t, std::uint64_t>> stuck_;
};

} // namespace rhmd::runtime

#endif // RHMD_RUNTIME_FAULT_INJECTION_HH
