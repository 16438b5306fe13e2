/**
 * @file
 * Feature specification implementation.
 */

#include "features/spec.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace rhmd::features
{

const char *
featureKindName(FeatureKind kind)
{
    switch (kind) {
      case FeatureKind::Instructions:
        return "instructions";
      case FeatureKind::Memory:
        return "memory";
      case FeatureKind::Architectural:
        return "architectural";
    }
    rhmd_panic("bad feature kind");
}

std::size_t
FeatureSpec::dim() const
{
    switch (kind) {
      case FeatureKind::Instructions:
        return opcodeSel.size();
      case FeatureKind::Memory:
        return kNumMemBins;
      case FeatureKind::Architectural:
        return uarch::kNumEvents;
    }
    rhmd_panic("bad feature kind");
}

void
FeatureSpec::appendTo(const RawWindow &window, double *out) const
{
    const double insts =
        std::max<double>(1.0, static_cast<double>(window.instCount));
    switch (kind) {
      case FeatureKind::Instructions: {
        panic_if(opcodeSel.empty(),
                 "Instructions spec has no selected opcodes; run "
                 "selectTopDeltaOpcodes first");
        for (std::size_t sel : opcodeSel) {
            panic_if(sel >= trace::kNumOpClasses,
                     "bad opcode selection index");
            *out++ = window.opcodeCounts[sel] / insts;
        }
        return;
      }
      case FeatureKind::Memory: {
        for (std::uint32_t bin : window.memDeltaBins)
            *out++ = static_cast<double>(bin) / insts;
        return;
      }
      case FeatureKind::Architectural: {
        uarch::eventRates(window.events, insts, out);
        return;
      }
    }
    rhmd_panic("bad feature kind");
}

std::string
FeatureSpec::describe() const
{
    std::string label = featureKindName(kind);
    label += "@";
    if (period % 1000 == 0) {
        label += std::to_string(period / 1000);
        label += "k";
    } else {
        label += std::to_string(period);
    }
    return label;
}

std::vector<std::size_t>
selectTopDeltaOpcodes(const std::vector<const RawWindow *> &windows,
                      const std::vector<bool> &labels, std::size_t k)
{
    panic_if(windows.size() != labels.size(),
             "selectTopDeltaOpcodes: size mismatch");
    fatal_if(k == 0 || k > trace::kNumOpClasses,
             "opcode selection size must be in [1, ",
             trace::kNumOpClasses, "]");

    std::array<double, trace::kNumOpClasses> malware_mean{};
    std::array<double, trace::kNumOpClasses> benign_mean{};
    std::size_t n_malware = 0;
    std::size_t n_benign = 0;

    for (std::size_t i = 0; i < windows.size(); ++i) {
        const RawWindow &window = *windows[i];
        const double insts = std::max<double>(
            1.0, static_cast<double>(window.instCount));
        auto &accum = labels[i] ? malware_mean : benign_mean;
        (labels[i] ? n_malware : n_benign) += 1;
        for (std::size_t op = 0; op < trace::kNumOpClasses; ++op)
            accum[op] += static_cast<double>(window.opcodeCounts[op]) / insts;
    }
    fatal_if(n_malware == 0 || n_benign == 0,
             "opcode selection requires both classes in training data");

    std::vector<std::pair<double, std::size_t>> deltas;
    deltas.reserve(trace::kNumOpClasses);
    for (std::size_t op = 0; op < trace::kNumOpClasses; ++op) {
        const double delta =
            std::abs(malware_mean[op] / static_cast<double>(n_malware) -
                     benign_mean[op] / static_cast<double>(n_benign));
        deltas.emplace_back(delta, op);
    }
    std::sort(deltas.begin(), deltas.end(), [](auto &a, auto &b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;  // deterministic tie-break
    });

    std::vector<std::size_t> selected;
    selected.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
        selected.push_back(deltas[i].second);
    return selected;
}

void
fillCombined(const std::vector<FeatureSpec> &specs,
             const RawWindow &window, double *out)
{
    for (const FeatureSpec &spec : specs) {
        spec.appendTo(window, out);
        out += spec.dim();
    }
}

std::size_t
combinedDim(const std::vector<FeatureSpec> &specs)
{
    std::size_t total = 0;
    for (const FeatureSpec &spec : specs)
        total += spec.dim();
    return total;
}

} // namespace rhmd::features
