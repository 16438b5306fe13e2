/**
 * @file
 * Scoped tracing and snapshot writing implementation.
 */

#include "support/tracing.hh"

#include <fstream>
#include <vector>

#include "support/logging.hh"

namespace rhmd::support
{

namespace
{

/** Span-name stack of the calling thread. */
thread_local std::vector<std::string> tlsSpanStack;

} // namespace

TraceRegistry &
TraceRegistry::instance()
{
    static TraceRegistry registry;
    return registry;
}

void
TraceRegistry::record(const std::string &path, double seconds)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    SpanStats &stats = spans_[path];
    stats.count += 1;
    stats.seconds += seconds;
}

std::map<std::string, SpanStats>
TraceRegistry::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
TraceRegistry::toJsonArray() const
{
    const std::map<std::string, SpanStats> spans = snapshot();
    std::string out = "[";
    bool first = true;
    for (const auto &[path, stats] : spans) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"path\": \"" + jsonEscape(path) +
               "\", \"count\": " + std::to_string(stats.count) +
               ", \"seconds\": " + formatMetricValue(stats.seconds) +
               "}";
    }
    out += first ? "]" : "\n  ]";
    return out;
}

void
TraceRegistry::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

ScopedSpan::ScopedSpan(std::string_view name)
    : start_(std::chrono::steady_clock::now())
{
    panic_if(name.empty(), "span names must be non-empty");
    panic_if(name.find('/') != std::string_view::npos,
             "span name '", name, "' must not contain '/'");
    tlsSpanStack.emplace_back(name);
}

ScopedSpan::~ScopedSpan()
{
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::string path;
    for (const std::string &name : tlsSpanStack) {
        if (!path.empty())
            path += '/';
        path += name;
    }
    tlsSpanStack.pop_back();
    TraceRegistry::instance().record(path, seconds);
}

std::string
observabilityJson(const RunManifest &manifest, bool include_timing)
{
    std::string out = "{\n";
    out += "  \"manifest\": " + manifest.toJson() + ",\n";
    out += "  \"metrics\": " +
           metrics().toJsonArray(include_timing);
    if (include_timing) {
        out += ",\n  \"spans\": " +
               TraceRegistry::instance().toJsonArray();
    }
    out += "\n}\n";
    return out;
}

bool
writeObservabilitySnapshot(const std::string &dir,
                           const std::string &name,
                           const RunManifest &manifest)
{
    const std::string base = dir + "/METRICS_" + name;
    {
        std::ofstream out(base + ".json");
        if (!out) {
            warn("cannot write " + base + ".json");
            return false;
        }
        out << observabilityJson(manifest);
    }
    {
        std::ofstream out(base + ".prom");
        if (!out) {
            warn("cannot write " + base + ".prom");
            return false;
        }
        out << metrics().toPrometheus();
    }
    return true;
}

} // namespace rhmd::support
