/**
 * @file
 * Span recording and self-time attribution.
 */

#include "spans.hh"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench
{

namespace
{

double
seconds(const Span &span)
{
    return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

} // namespace

Tracer::Tracer(Clock::time_point origin) : origin_(origin) {}

void
Tracer::clear()
{
    if (!stack_.empty())
        throw std::logic_error("tracer cleared with an open span");
    spans_.clear();
}

std::int32_t
Tracer::open(const char *name, std::uint32_t rep, std::uint64_t key)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.rep = rep;
    span.key = key;
    const auto id = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(id);
    span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
    spans_.push_back(span);
    return id;
}

void
Tracer::close(std::int32_t id, std::uint64_t units)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count();
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.endNs = now;
    span.units = units;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "rep\tname\tstart_ns\tend_ns\tparent\tkey\tunits\n");
    for (const Span &span : spans_) {
        std::fprintf(out, "%u\t%s\t%lld\t%lld\t%d\t%llu\t%llu\n", span.rep,
                     span.name, static_cast<long long>(span.startNs),
                     static_cast<long long>(span.endNs), span.parent,
                     static_cast<unsigned long long>(span.key),
                     static_cast<unsigned long long>(span.units));
    }
    return std::fclose(out) == 0;
}

RepClock::RepClock(Tracer *tracer, std::uint32_t rep)
    : tracer_(tracer), id_(tracer != nullptr ? tracer->open("rep", rep) : -1),
      start_(Clock::now())
{
}

double
RepClock::stop()
{
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start_).count();
    if (tracer_ != nullptr) {
        tracer_->close(id_);
        tracer_ = nullptr;
    }
    return elapsed;
}

std::int32_t
findRepRoot(const std::vector<Span> &spans, std::uint32_t rep)
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent == -1 && spans[i].rep == rep &&
            std::strcmp(spans[i].name, "rep") == 0)
            return static_cast<std::int32_t>(i);
    }
    return -1;
}

RepProfile
profileRep(const std::vector<Span> &spans, std::int32_t root)
{
    RepProfile profile;
    const auto first = static_cast<std::size_t>(root);
    profile.repSeconds = seconds(spans[first]);
    // Spans are stored in open order, so the subtree of root is the
    // contiguous run after it whose ancestry leads back to it.
    std::size_t end = first + 1;
    while (end < spans.size() && spans[end].parent >= root)
        ++end;
    std::vector<double> childSeconds(end - first, 0.0);
    for (std::size_t i = first + 1; i < end; ++i)
        childSeconds[static_cast<std::size_t>(spans[i].parent) - first] +=
            seconds(spans[i]);
    profile.unattributedSeconds = profile.repSeconds - childSeconds[0];
    for (std::size_t i = first + 1; i < end; ++i) {
        LayerRow &row = profile.layers[spans[i].name];
        row.calls += 1;
        row.wallSeconds += seconds(spans[i]);
        row.seconds += seconds(spans[i]) - childSeconds[i - first];
        row.units += spans[i].units;
    }
    return profile;
}

LayerRow
probeRow(const std::vector<Span> &spans, std::uint32_t rep, const char *name)
{
    LayerRow row;
    for (const Span &span : spans) {
        if (span.parent == -1 && span.rep == rep &&
            std::strcmp(span.name, name) == 0) {
            row.calls += 1;
            row.seconds += seconds(span);
            row.wallSeconds += seconds(span);
            row.units += span.units;
        }
    }
    return row;
}

} // namespace perfbench
