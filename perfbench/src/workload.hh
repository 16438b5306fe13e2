/**
 * @file
 * The benchmark's workloads: a common interface over the three
 * single-process loads (see NOTES.md for why each exists).
 *
 * A rep is one unit of work of fixed size whose inputs are a pure
 * function of (run seed, rep index) and fresh for every index, so no
 * result can carry over from one rep to the next. runRep() times only
 * its own work section; digests and checks happen after the clock
 * stops.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check.hh"
#include "spans.hh"

namespace perfbench
{

/** What one rep did. */
struct RepResult
{
    double seconds = 0.0;         ///< host time of the timed section
    std::uint64_t digest = 0;     ///< digest of the rep's outputs
    std::uint64_t attempted = 0;  ///< operations attempted
    std::uint64_t failed = 0;     ///< operations that failed
    /** False when an output broke a structural invariant. */
    bool valid = true;
    /** Simulated statistics of the rep's simulated programs. */
    UarchTotals uarch;
    /** serve: median and p99 submit-to-resolve latency of the rep. */
    double p50Us = 0.0;
    double p99Us = 0.0;
};

/** A named value with its unit, printed by name. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build everything the reps share. Timed as setup_s and called
     * several times per run; every call but the first follows
     * teardown().
     */
    virtual void setup() = 0;

    /**
     * Release everything setup() built, so the next set-up neither
     * pays for freeing it nor shares the process with it. Untimed.
     */
    virtual void teardown() = 0;

    /** Run rep @p index; @p tracer is null in untraced reps. */
    virtual RepResult runRep(std::uint32_t index, Tracer *tracer) = 0;

    /**
     * Untimed per-layer probes replaying rep @p index's inputs, run
     * after a traced rep. Default: none.
     */
    virtual void probe(std::uint32_t /*index*/, Tracer & /*tracer*/) {}

    /**
     * Reps the output check covers: the prefix of every run that is
     * digested, replayed and compared with the golden. Called once,
     * after the first setup().
     */
    virtual std::uint32_t checkedReps() const = 0;

    /**
     * The workload's own end-to-end figures, printed beside the
     * metrics BENCHMARK.json lists: @p rep_seconds is the run's best (fastest)
     * untraced rep time, @p reps those reps.
     */
    virtual std::vector<Metric> summarize(double rep_seconds,
                                          const std::vector<RepResult> &reps)
        const = 0;
};

/** Names accepted by makeWorkload, in a stable order. */
const std::vector<std::string> &workloadNames();

/** The workload called @p name, seeded, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       std::uint64_t seed);

std::unique_ptr<Workload> makeSimulate(std::uint64_t seed);
std::unique_ptr<Workload> makeEvadeRetrain(std::uint64_t seed);
std::unique_ptr<Workload> makeServe(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
