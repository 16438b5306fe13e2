/**
 * @file
 * Process-wide metrics registry: the measurement substrate for the
 * scaling work (EMMA argues HMD evaluations need instrumented,
 * reproducible measurement platforms; ad-hoc prints are neither).
 *
 * Three metric kinds, Prometheus-shaped:
 *
 *  - Counter: a monotonic unsigned total ("victim programs queried").
 *  - Gauge: a last-written or running-max double ("peak queue depth").
 *  - Histogram: fixed upper-bound buckets plus a running sum/count
 *    ("per-task pool latency", "realized detector selection").
 *
 * Storage is sharded per thread (each thread writes its own
 * cache-line-aligned slot, assigned round-robin on first use) and
 * merged *by shard index* when read, so instrumented parallel code
 * pays one relaxed atomic add per event and the merged values stay
 * bit-identical under `--threads N`:
 *
 *  - Counter values and histogram bucket/observation counts are
 *    integer sums, associative under any merge order.
 *  - Histogram sums are exact whenever the observed values are
 *    integer-valued (every deterministic histogram in this codebase
 *    observes counts or indices, never wall time).
 *
 * Every metric declares a MetricDomain. Deterministic metrics depend
 * only on (seed, config) and must be byte-identical between a
 * 1-thread and an N-thread run — the CI determinism gate diffs them.
 * Timing metrics (latencies, queue depths, anything scheduling- or
 * clock-dependent) are exposition-only and are stripped before the
 * comparison. See DESIGN.md section 10 for the full contract.
 *
 * Two exposition formats: Prometheus text (toPrometheus) and a JSON
 * snapshot (toJsonArray). A RunManifest (seed, threads, git describe,
 * free-form config) identifies the producing run; every bench and
 * tool stamps one into its output so a snapshot is interpretable
 * without the shell command that produced it.
 */

#ifndef RHMD_SUPPORT_METRICS_HH
#define RHMD_SUPPORT_METRICS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rhmd::support
{

/** Threads map onto this many storage shards, round-robin. */
constexpr std::size_t kMetricShards = 64;

/** Shard index of the calling thread (assigned on first use). */
std::size_t metricShard();

/**
 * Whether a metric participates in the determinism contract.
 * Deterministic values depend only on (seed, config); Timing values
 * may vary run to run and are stripped before determinism diffs.
 */
enum class MetricDomain : std::uint8_t
{
    Deterministic,
    Timing,
};

/** "deterministic" or "timing". */
std::string_view metricDomainName(MetricDomain domain);

/** Escape @p text for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Render @p value the way every exposition in this layer does:
 * integer-valued doubles print with no fraction ("42"), everything
 * else as shortest-roundtrip-ish "%.9g". Deterministic formatting is
 * part of the snapshot-diffing contract.
 */
std::string formatMetricValue(double value);

/** Monotonic counter; add() is a relaxed atomic on the shard slot. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    /** Add @p n to the calling thread's shard. */
    void add(std::uint64_t n = 1)
    {
        shards_[metricShard()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Total over all shards, merged in shard-index order. */
    std::uint64_t value() const;

    /** Zero every shard (tests and fresh measurement windows). */
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };

    std::array<Shard, kMetricShards> shards_;
};

/**
 * High-water-mark double: updateMax() raises it atomically, so its
 * value is the largest one observed since the last reset().
 */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    /** Raise the gauge to @p value if it is larger (CAS loop). */
    void updateMax(double value);

    double value() const;
    void reset();

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Buckets are inclusive upper bounds in
 * strictly increasing order with an implicit +Inf overflow bucket;
 * observe(v) lands in the first bucket with v <= bound.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);

    /** Upper bounds, excluding the implicit +Inf bucket. */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts (bounds().size() + 1 entries), merged. */
    std::vector<std::uint64_t> bucketCounts() const;

    /** Observations recorded. */
    std::uint64_t count() const;

    /** Sum of observed values (exact for integer-valued samples). */
    double sum() const;

    void reset();

  private:
    struct alignas(64) Shard
    {
        std::vector<std::atomic<std::uint64_t>> buckets;
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
    };

    std::vector<double> bounds_;
    std::vector<Shard> shards_;
};

/**
 * Name-keyed metric registry. Registration is idempotent: asking for
 * an existing name returns the same object (and panics if the kind,
 * domain, or bucket layout disagrees — two call sites fighting over
 * one name is a bug). Hot paths cache the returned reference in a
 * function-local static; handles stay valid across reset().
 *
 * Metric names are lowercase dotted paths ("reveng.victim_programs");
 * exposition sanitizes them per format.
 */
class MetricsRegistry
{
  public:
    /** A private registry (tests); production code uses instance(). */
    MetricsRegistry() = default;

    /** The process-wide registry. */
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name, const std::string &help,
                     MetricDomain domain = MetricDomain::Deterministic);

    Gauge &gauge(const std::string &name, const std::string &help,
                 MetricDomain domain = MetricDomain::Timing);

    Histogram &
    histogram(const std::string &name, const std::string &help,
              std::vector<double> bounds,
              MetricDomain domain = MetricDomain::Deterministic);

    /** Merged value of a registered counter; 0 when absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Prometheus text exposition: HELP/TYPE comments, "rhmd_" prefix,
     * dots mapped to underscores, histograms as cumulative
     * _bucket{le=...}/_sum/_count series.
     */
    std::string toPrometheus() const;

    /**
     * JSON array of metric objects, sorted by name. When
     * @p include_timing is false, Timing-domain metrics are omitted —
     * the stripped form the determinism gate compares.
     */
    std::string toJsonArray(bool include_timing = true) const;

    /** Zero every registered metric (registrations survive). */
    void reset();

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        MetricDomain domain = MetricDomain::Deterministic;
        std::string help;
        std::unique_ptr<class Counter> counter;
        std::unique_ptr<class Gauge> gauge;
        std::unique_ptr<class Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &name, const std::string &help,
                        Kind kind, MetricDomain domain);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

/** Shorthand for MetricsRegistry::instance(). */
MetricsRegistry &metrics();

/**
 * Identity of one run, stamped into every bench/tool output so a
 * metrics snapshot or BENCH_*.json is attributable to an exact
 * (binary, seed, thread count, source revision, configuration).
 */
struct RunManifest
{
    std::string tool;
    std::uint64_t seed = 0;
    std::size_t threads = 1;
    bool smoke = false;

    /** `git describe --always --dirty` captured at configure time. */
    std::string gitDescribe;

    /** Free-form configuration, serialized in insertion order. */
    std::vector<std::pair<std::string, std::string>> config;

    RunManifest();

    void addConfig(std::string key, std::string value)
    {
        config.emplace_back(std::move(key), std::move(value));
    }

    /** One JSON object; keys are stable across runs. */
    std::string toJson() const;
};

/** The configure-time `git describe` stamp, or "unknown". */
const char *buildGitDescribe();

} // namespace rhmd::support

#endif // RHMD_SUPPORT_METRICS_HH
