/**
 * @file
 * Scoped tracing: RAII spans that aggregate into a per-phase timing
 * tree ("where does the wall time of a fig13 generation loop go?").
 *
 * A ScopedSpan pushes its name onto a thread-local stack on
 * construction and, on destruction, records (count += 1, seconds +=
 * elapsed) against the full slash-joined path ("game/generation/
 * train") in the global TraceRegistry. Identical paths aggregate, so
 * a loop that opens the same span per iteration produces one tree
 * node with the iteration count and total time — a profile, not a
 * log.
 *
 * Spans measure wall time and are therefore Timing-domain by
 * definition: the span tree appears in observability snapshots for
 * humans but is always stripped before determinism comparisons
 * (DESIGN.md section 10). Span *counts* are deterministic in
 * practice, but the tree is excluded wholesale to keep the contract
 * simple.
 *
 * Spans are cheap (one clock read per end plus a mutex'd map update)
 * but not free: instrument phases and loop bodies, not inner loops.
 * Worker threads may open spans; their stacks are their own, so a
 * span opened inside a pool task roots at that worker's stack.
 */

#ifndef RHMD_SUPPORT_TRACING_HH
#define RHMD_SUPPORT_TRACING_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "support/metrics.hh"

namespace rhmd::support
{

/** Aggregated statistics of one span path. */
struct SpanStats
{
    std::uint64_t count = 0;
    double seconds = 0.0;
};

/**
 * Path-keyed aggregate of every closed span. Paths are slash-joined
 * span names; the tree structure is recovered from the paths at
 * exposition time.
 */
class TraceRegistry
{
  public:
    TraceRegistry() = default;

    /** The process-wide registry ScopedSpan records into. */
    static TraceRegistry &instance();

    /** Fold @p seconds into the stats of @p path. */
    void record(const std::string &path, double seconds);

    /** Copy of the aggregate, sorted by path. */
    std::map<std::string, SpanStats> snapshot() const;

    /** JSON array of {"path", "count", "seconds"}, sorted by path. */
    std::string toJsonArray() const;

    /** Forget every recorded span. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, SpanStats> spans_;
};

/**
 * RAII span. Construct at the top of a phase; the destructor stamps
 * the elapsed wall time into TraceRegistry::instance(). Span names
 * must be non-empty and must not contain '/'.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * One observability snapshot: {"manifest", "metrics", "spans"} from
 * the process-wide registries. With @p include_timing false, Timing
 * metrics and the span tree are stripped — the form the determinism
 * gate compares between thread counts.
 */
std::string observabilityJson(const RunManifest &manifest,
                              bool include_timing = true);

/**
 * Write METRICS_<name>.json (observabilityJson) and
 * METRICS_<name>.prom (Prometheus text) into @p dir. Returns false
 * (with a warning) when either file cannot be written.
 */
bool writeObservabilitySnapshot(const std::string &dir,
                                const std::string &name,
                                const RunManifest &manifest);

} // namespace rhmd::support

#endif // RHMD_SUPPORT_TRACING_HH
