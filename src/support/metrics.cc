/**
 * @file
 * Metrics registry implementation.
 */

#include "support/metrics.hh"

#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace rhmd::support
{

namespace
{

/** Round-robin shard assignment; wraps past kMetricShards. */
std::atomic<std::size_t> nextShard{0};

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

/** "rhmd_" prefix plus dots mapped to underscores. */
std::string
prometheusName(const std::string &name)
{
    std::string out = "rhmd_";
    for (char c : name)
        out += c == '.' ? '_' : c;
    return out;
}

/** Atomic fetch-add for doubles via CAS (portable pre-fetch_add). */
void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double seen = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

std::size_t
metricShard()
{
    thread_local std::size_t shard = kMetricShards;
    if (shard == kMetricShards) {
        shard = nextShard.fetch_add(1, std::memory_order_relaxed) %
                kMetricShards;
    }
    return shard;
}

std::string_view
metricDomainName(MetricDomain domain)
{
    return domain == MetricDomain::Deterministic ? "deterministic"
                                                 : "timing";
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatMetricValue(double value)
{
    char buf[64];
    if (std::isfinite(value) && value == std::rint(value) &&
        std::abs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", value);
    }
    return buf;
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (Shard &shard : shards_)
        shard.value.store(0, std::memory_order_relaxed);
}

void
Gauge::updateMax(double value)
{
    double seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

double
Gauge::value() const
{
    return value_.load(std::memory_order_relaxed);
}

void
Gauge::reset()
{
    value_.store(0.0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(kMetricShards)
{
    panic_if(bounds_.empty(), "histogram needs at least one bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        panic_if(bounds_[i - 1] >= bounds_[i],
                 "histogram bounds must be strictly increasing");
    }
    for (Shard &shard : shards_) {
        shard.buckets =
            std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    }
}

void
Histogram::observe(double value)
{
    std::size_t bucket = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    Shard &shard = shards_[metricShard()];
    shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(shard.sum, value);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
    for (const Shard &shard : shards_) {
        for (std::size_t b = 0; b < counts.size(); ++b)
            counts[b] +=
                shard.buckets[b].load(std::memory_order_relaxed);
    }
    return counts;
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.count.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const
{
    // Merged in shard-index order; exact for integer-valued samples
    // regardless of which thread produced which shard.
    double total = 0.0;
    for (const Shard &shard : shards_)
        total += shard.sum.load(std::memory_order_relaxed);
    return total;
}

void
Histogram::reset()
{
    for (Shard &shard : shards_) {
        for (auto &bucket : shard.buckets)
            bucket.store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0.0, std::memory_order_relaxed);
    }
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry &
metrics()
{
    return MetricsRegistry::instance();
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &help, Kind kind,
                              MetricDomain domain)
{
    panic_if(!validMetricName(name), "bad metric name '", name,
             "' (want lowercase dotted path)");
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(name);
    Entry &entry = it->second;
    if (inserted) {
        entry.kind = kind;
        entry.domain = domain;
        entry.help = help;
    } else {
        panic_if(entry.kind != kind || entry.domain != domain,
                 "metric '", name,
                 "' re-registered with a different kind or domain");
    }
    return entry;
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         MetricDomain domain)
{
    Entry &entry = findOrCreate(name, help, Kind::Counter, domain);
    if (entry.counter == nullptr)
        entry.counter = std::make_unique<class Counter>();
    return *entry.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       MetricDomain domain)
{
    Entry &entry = findOrCreate(name, help, Kind::Gauge, domain);
    if (entry.gauge == nullptr)
        entry.gauge = std::make_unique<class Gauge>();
    return *entry.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<double> bounds,
                           MetricDomain domain)
{
    Entry &entry = findOrCreate(name, help, Kind::Histogram, domain);
    if (entry.histogram == nullptr) {
        entry.histogram =
            std::make_unique<class Histogram>(std::move(bounds));
    } else {
        panic_if(entry.histogram->bounds() != bounds, "histogram '",
                 name, "' re-registered with different buckets");
    }
    return *entry.histogram;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end() || it->second.counter == nullptr)
        return 0;
    return it->second.counter->value();
}

std::string
MetricsRegistry::toPrometheus() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto &[name, entry] : entries_) {
        const std::string prom = prometheusName(name);
        out += "# HELP " + prom + " " + entry.help + "\n";
        switch (entry.kind) {
        case Kind::Counter:
            out += "# TYPE " + prom + " counter\n";
            out += prom + " " +
                   std::to_string(entry.counter->value()) + "\n";
            break;
        case Kind::Gauge:
            out += "# TYPE " + prom + " gauge\n";
            out += prom + " " +
                   formatMetricValue(entry.gauge->value()) + "\n";
            break;
        case Kind::Histogram: {
            out += "# TYPE " + prom + " histogram\n";
            const Histogram &h = *entry.histogram;
            const std::vector<std::uint64_t> counts = h.bucketCounts();
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < h.bounds().size(); ++b) {
                cumulative += counts[b];
                out += prom + "_bucket{le=\"" +
                       formatMetricValue(h.bounds()[b]) + "\"} " +
                       std::to_string(cumulative) + "\n";
            }
            cumulative += counts.back();
            out += prom + "_bucket{le=\"+Inf\"} " +
                   std::to_string(cumulative) + "\n";
            out += prom + "_sum " + formatMetricValue(h.sum()) + "\n";
            out += prom + "_count " + std::to_string(h.count()) + "\n";
            break;
        }
        }
    }
    return out;
}

std::string
MetricsRegistry::toJsonArray(bool include_timing) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "[";
    bool first = true;
    for (const auto &[name, entry] : entries_) {
        if (!include_timing && entry.domain == MetricDomain::Timing)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"name\": \"" + jsonEscape(name) +
               "\", \"domain\": \"" +
               std::string(metricDomainName(entry.domain)) + "\", ";
        switch (entry.kind) {
        case Kind::Counter:
            out += "\"kind\": \"counter\", \"value\": " +
                   std::to_string(entry.counter->value());
            break;
        case Kind::Gauge:
            out += "\"kind\": \"gauge\", \"value\": " +
                   formatMetricValue(entry.gauge->value());
            break;
        case Kind::Histogram: {
            const Histogram &h = *entry.histogram;
            out += "\"kind\": \"histogram\", \"bounds\": [";
            for (std::size_t b = 0; b < h.bounds().size(); ++b) {
                out += b > 0 ? ", " : "";
                out += formatMetricValue(h.bounds()[b]);
            }
            out += "], \"counts\": [";
            const std::vector<std::uint64_t> counts = h.bucketCounts();
            for (std::size_t b = 0; b < counts.size(); ++b) {
                out += b > 0 ? ", " : "";
                out += std::to_string(counts[b]);
            }
            out += "], \"count\": " + std::to_string(h.count()) +
                   ", \"sum\": " + formatMetricValue(h.sum());
            break;
        }
        }
        out += "}";
    }
    out += first ? "]" : "\n  ]";
    return out;
}

void
MetricsRegistry::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, entry] : entries_) {
        if (entry.counter != nullptr)
            entry.counter->reset();
        if (entry.gauge != nullptr)
            entry.gauge->reset();
        if (entry.histogram != nullptr)
            entry.histogram->reset();
    }
}

const char *
buildGitDescribe()
{
#ifdef RHMD_GIT_DESCRIBE
    return RHMD_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

RunManifest::RunManifest() : gitDescribe(buildGitDescribe()) {}

std::string
RunManifest::toJson() const
{
    std::string out = "{\"tool\": \"" + jsonEscape(tool) + "\", ";
    out += "\"seed\": " + std::to_string(seed) + ", ";
    out += "\"threads\": " + std::to_string(threads) + ", ";
    out += "\"smoke\": " + std::string(smoke ? "true" : "false") + ", ";
    out += "\"git\": \"" + jsonEscape(gitDescribe) + "\", ";
    out += "\"config\": {";
    for (std::size_t i = 0; i < config.size(); ++i) {
        out += i > 0 ? ", " : "";
        out += '"';
        out += jsonEscape(config[i].first);
        out += "\": \"";
        out += jsonEscape(config[i].second);
        out += '"';
    }
    out += "}}";
    return out;
}

} // namespace rhmd::support
