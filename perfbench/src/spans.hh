/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * The benchmark opens a span around each public library call it
 * makes (the library itself is not instrumented). Every rep's timed
 * section is a root span named "rep"; the calls inside it are its
 * children. A span's self time is its duration minus the durations of
 * its direct children, so the root's self time is the rep time no
 * layer span covers ("unattributed"). Spans stay in memory until the
 * process writes them out after the last rep.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One recorded call. */
struct Span
{
    const char *name = "";     ///< static string: the layer call
    std::int64_t startNs = 0;  ///< since the tracer was created
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint32_t rep = 0;     ///< rep the call belongs to
    std::uint64_t key = 0;     ///< serve request key, else 0
    std::uint64_t units = 0;   ///< work units the call processed
};

/** Single-threaded span recorder (spans nest on the calling thread). */
class Tracer
{
  public:
    /** @param origin time zero of the recorded start/end offsets. */
    explicit Tracer(Clock::time_point origin);

    /** Open a span as a child of the innermost open one. */
    std::int32_t open(const char *name, std::uint32_t rep,
                      std::uint64_t key = 0);

    /** Close span @p id (must be the innermost open span). */
    void close(std::int32_t id, std::uint64_t units = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop every recorded span (none may be open). */
    void clear();

    /**
     * Write every span as one tab-separated line
     * (rep, name, start_ns, end_ns, parent, key, units) to @p path.
     * Returns false when the file cannot be written.
     */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a no-op when constructed with a null tracer. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, std::uint32_t rep,
              std::uint64_t key = 0)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->open(name, rep, key) : -1)
    {
    }
    ~SpanScope()
    {
        if (tracer_ != nullptr)
            tracer_->close(id_, units_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Work units to record when the span closes. */
    void setUnits(std::uint64_t units) { units_ = units; }

  private:
    Tracer *tracer_;
    std::int32_t id_;
    std::uint64_t units_ = 0;
};

/**
 * The timed section of one rep: starts the clock, opens the rep's
 * root span when traced, and stop() closes both, returning the host
 * seconds the section took.
 */
class RepClock
{
  public:
    RepClock(Tracer *tracer, std::uint32_t rep);
    double stop();

  private:
    Tracer *tracer_;
    std::int32_t id_;
    Clock::time_point start_;
};

/** Per-call-name rollup of the spans under one root. */
struct LayerRow
{
    std::uint64_t calls = 0;
    double seconds = 0.0;      ///< summed self time
    double wallSeconds = 0.0;  ///< summed duration
    std::uint64_t units = 0;
};

/** Self-time attribution of one rep. */
struct RepProfile
{
    double repSeconds = 0.0;
    double unattributedSeconds = 0.0;  ///< the root's own self time
    std::map<std::string, LayerRow> layers;
};

/** Index of the root span "rep" of rep @p rep, or -1. */
std::int32_t findRepRoot(const std::vector<Span> &spans, std::uint32_t rep);

/** Attribute the subtree of root span @p root by call name. */
RepProfile profileRep(const std::vector<Span> &spans, std::int32_t root);

/**
 * Roll up the root spans named @p name recorded for rep @p rep outside
 * its timed section (the serve probes).
 */
LayerRow probeRow(const std::vector<Span> &spans, std::uint32_t rep,
                  const char *name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
