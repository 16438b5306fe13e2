/**
 * @file
 * Fault injector implementation.
 */

#include "runtime/fault_injection.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"

namespace rhmd::runtime
{

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), rng_(config.seed)
{
    fatal_if(config_.counterNoiseSigma < 0.0,
             "counter noise sigma must be non-negative");
    for (double p : {config_.stuckCounterProb, config_.dropWindowProb,
                     config_.truncateWindowProb,
                     config_.transientReadFailProb,
                     config_.byteFlipRate}) {
        fatal_if(p < 0.0 || p > 1.0,
                 "fault probabilities must be in [0, 1]");
    }
    fatal_if(config_.truncateFrac <= 0.0 || config_.truncateFrac > 1.0,
             "truncate fraction must be in (0, 1]");
}

std::uint64_t
FaultInjector::perturbCount(std::uint64_t value)
{
    double x = static_cast<double>(value);
    if (config_.counterNoiseSigma > 0.0)
        x *= 1.0 + rng_.gaussian(0.0, config_.counterNoiseSigma);
    x = std::max(x, 0.0);
    return static_cast<std::uint64_t>(std::llround(x));
}

void
FaultInjector::perturbCounts(uarch::EventCounts &events)
{
    for (std::uint64_t &count : events)
        count = perturbCount(count);
    if (!stuck_ && config_.stuckCounterProb > 0.0 &&
        rng_.chance(config_.stuckCounterProb)) {
        const std::size_t which = rng_.below(uarch::kNumEvents);
        stuck_ = {which, events[which]};
    }
    if (stuck_)
        events[stuck_->first] = stuck_->second;
}

features::ProgramFeatures
FaultInjector::sense(const features::ProgramFeatures &prog,
                     std::uint32_t epoch,
                     const support::RetryPolicy &retry,
                     SenseReport &report)
{
    features::ProgramFeatures sensed;
    sensed.name = prog.name;
    sensed.malware = prog.malware;
    sensed.family = prog.family;
    for (const auto &entry : prog.byPeriod)
        sensed.byPeriod.try_emplace(entry.first);

    const std::size_t n_epochs = prog.windows(epoch).size();
    report.epochs += n_epochs;
    for (std::size_t e = 0; e < n_epochs; ++e) {
        const support::Status read = support::retryWithBackoff(
            retry,
            [this]() -> support::Status {
                if (transientReadFailure())
                    return support::unavailableError(
                        "transient sensor-read failure");
                return {};
            },
            &report.retry);
        if (!read.isOk() || (config_.dropWindowProb > 0.0 &&
                             rng_.chance(config_.dropWindowProb))) {
            ++report.dropped;
            continue;
        }
        for (const auto &[period, clean] : prog.byPeriod) {
            if (epoch % period != 0)
                continue;
            std::vector<features::RawWindow> &out =
                sensed.byPeriod[period];
            const std::size_t per_epoch = epoch / period;
            const std::size_t end =
                std::min(clean.size(), (e + 1) * per_epoch);
            for (std::size_t w = e * per_epoch; w < end; ++w) {
                out.push_back(clean[w]);
                if (perturbWindow(out.back()) == WindowFault::Truncated)
                    ++report.truncated;
            }
        }
    }
    return sensed;
}

WindowFault
FaultInjector::perturbWindow(features::RawWindow &window)
{
    WindowFault fault = WindowFault::None;
    if (config_.truncateWindowProb > 0.0 &&
        rng_.chance(config_.truncateWindowProb)) {
        // Partial collection: only the leading fraction of the
        // window was gathered before the counters were reaped.
        fault = WindowFault::Truncated;
        const double keep = config_.truncateFrac;
        for (auto &count : window.opcodeCounts)
            count = static_cast<std::uint32_t>(count * keep);
        for (auto &count : window.memDeltaBins)
            count = static_cast<std::uint32_t>(count * keep);
        for (auto &count : window.events)
            count = static_cast<std::uint64_t>(
                static_cast<double>(count) * keep);
        window.instCount =
            static_cast<std::uint64_t>(window.instCount * keep);
        window.cycles *= keep;
    }

    if (config_.counterNoiseSigma > 0.0 ||
        config_.stuckCounterProb > 0.0) {
        for (auto &count : window.opcodeCounts)
            count = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(perturbCount(count),
                                        std::numeric_limits<
                                            std::uint32_t>::max()));
        for (auto &count : window.memDeltaBins)
            count = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(perturbCount(count),
                                        std::numeric_limits<
                                            std::uint32_t>::max()));
        perturbCounts(window.events);
    }
    return fault;
}

bool
FaultInjector::transientReadFailure()
{
    return config_.transientReadFailProb > 0.0 &&
           rng_.chance(config_.transientReadFailProb);
}

std::string
FaultInjector::corruptText(const std::string &text)
{
    std::string out = text;
    for (char &c : out) {
        if (config_.byteFlipRate > 0.0 &&
            rng_.chance(config_.byteFlipRate)) {
            // Printable garbage, so corrupt model files stay
            // greppable in bug reports.
            c = static_cast<char>('!' + rng_.below(94));
        }
    }
    return out;
}

bool
FaultInjector::keyedFault(std::uint64_t seed, std::uint64_t key,
                          std::uint64_t epoch, std::uint64_t detector,
                          double prob)
{
    if (prob <= 0.0)
        return false;
    if (prob >= 1.0)
        return true;
    // Three chained SplitRng derivations give one well-mixed 64-bit
    // word per coordinate; the top 53 bits map to [0, 1) exactly as
    // Rng::uniform does.
    const std::uint64_t per_key = SplitRng(seed).seedAt(key);
    const std::uint64_t per_epoch = SplitRng(per_key).seedAt(epoch);
    const std::uint64_t draw = SplitRng(per_epoch).seedAt(detector);
    return static_cast<double>(draw >> 11) * 0x1.0p-53 < prob;
}

} // namespace rhmd::runtime
