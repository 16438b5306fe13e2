/**
 * @file
 * Resilient HMD implementation.
 */

#include "core/rhmd.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"

namespace rhmd::core
{

namespace
{

// Switching metrics are Deterministic: Rhmd::decideBatch consumes
// the seeded switching stream strictly in epoch order (it is never run
// concurrently for one pool), so the realized selection histogram is
// part of the reproducible output and the determinism gate compares
// it across thread counts.

support::Counter &
epochsCounter()
{
    static support::Counter &c = support::metrics().counter(
        "rhmd.epochs", "decision epochs classified by RHMD pools");
    return c;
}

support::Histogram &
selectionHistogram()
{
    static support::Histogram &h = support::metrics().histogram(
        "rhmd.selection",
        "detector index drawn per epoch (realized switching)",
        {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
    return h;
}

} // namespace

support::Status
validatePolicy(std::vector<double> &policy, std::size_t n_detectors)
{
    if (n_detectors == 0)
        return support::invalidArgumentError(
            "policy needs at least one detector");
    if (policy.empty()) {
        policy.assign(n_detectors,
                      1.0 / static_cast<double>(n_detectors));
        return {};
    }
    if (policy.size() != n_detectors) {
        return support::invalidArgumentError(
            "policy size must match the detector count (got ",
            policy.size(), " probabilities for ", n_detectors,
            " detectors)");
    }
    double total = 0.0;
    for (double p : policy) {
        if (!std::isfinite(p))
            return support::invalidArgumentError(
                "policy probabilities must be finite");
        if (p < 0.0)
            return support::invalidArgumentError(
                "policy probabilities must be non-negative");
        total += p;
    }
    // 1e-6 tolerance absorbs float round-off in user-computed
    // policies (e.g. 1.0/3 three times); renormalize so downstream
    // sampling sees an exact distribution.
    if (std::abs(total - 1.0) > 1e-6)
        return support::invalidArgumentError(
            "policy must sum to 1 (got ", total, ")");
    for (double &p : policy)
        p /= total;
    return {};
}

support::Status
validateDetectorPool(const std::vector<std::unique_ptr<Hmd>> &detectors)
{
    if (detectors.empty())
        return support::invalidArgumentError(
            "pool needs at least one detector");
    std::vector<std::uint32_t> periods;
    for (const auto &det : detectors) {
        if (det == nullptr)
            return support::invalidArgumentError(
                "pool received a null detector");
        if (!det->trained())
            return support::failedPreconditionError(
                "pool detectors must be trained before pooling");
        periods.push_back(det->decisionPeriod());
    }
    return validateEpochPeriods(periods);
}

support::Status
validateEpochPeriods(const std::vector<std::uint32_t> &periods)
{
    // Precollected windows line up with epoch boundaries only when
    // every base period divides the longest one.
    std::uint32_t epoch = 0;
    for (std::uint32_t period : periods)
        epoch = std::max(epoch, period);
    for (std::uint32_t period : periods) {
        if (period == 0 || epoch % period != 0)
            return support::invalidArgumentError(
                "base period ", period,
                " does not divide the epoch length ", epoch);
    }
    return {};
}

std::uint32_t
poolEpoch(const std::vector<std::unique_ptr<Hmd>> &detectors)
{
    std::uint32_t epoch = 0;
    for (const auto &det : detectors)
        epoch = std::max(epoch, det->decisionPeriod());
    return epoch;
}

const features::RawWindow &
requireEpochWindow(const features::ProgramFeatures &prog,
                   std::uint32_t epoch, const Hmd &det, std::size_t e)
{
    const std::uint32_t period = det.decisionPeriod();
    const std::vector<features::RawWindow> &windows =
        prog.windows(period);
    const std::size_t index = e * (epoch / period);
    panic_if(index >= windows.size(), "no window for epoch ", e, " of '",
             prog.name, "' at period ", period);
    return windows[index];
}

support::Status
checkEpochWindows(const features::ProgramFeatures &prog,
                  const std::vector<std::unique_ptr<Hmd>> &detectors,
                  std::uint32_t epoch)
{
    const auto epochs = prog.byPeriod.find(epoch);
    if (epochs == prog.byPeriod.end())
        return support::invalidArgumentError(
            "program '", prog.name, "' has no windows for period ", epoch);
    const std::size_t n_epochs = epochs->second.size();
    for (std::size_t d = 0; d < detectors.size(); ++d) {
        const std::uint32_t period = detectors[d]->decisionPeriod();
        // One lookup per distinct period; the epoch's is done.
        bool seen = period == epoch;
        for (std::size_t k = 0; k < d && !seen; ++k)
            seen = detectors[k]->decisionPeriod() == period;
        if (seen)
            continue;
        const auto windows = prog.byPeriod.find(period);
        if (windows == prog.byPeriod.end())
            return support::invalidArgumentError(
                "program '", prog.name, "' has no windows for period ",
                period);
        // The last epoch's window index, as requireEpochWindow
        // computes it.
        if (n_epochs > 0 &&
            (n_epochs - 1) * (epoch / period) >= windows->second.size())
            return support::invalidArgumentError(
                "program '", prog.name, "' has no window for epoch ",
                n_epochs - 1, " at period ", period, " (",
                windows->second.size(), " windows)");
    }
    return {};
}

std::vector<const features::RawWindow *>
epochWindows(const features::ProgramFeatures &prog, std::uint32_t epoch,
             const Hmd &det)
{
    const std::size_t n_epochs = prog.windows(epoch).size();
    std::vector<const features::RawWindow *> out;
    out.reserve(n_epochs);
    for (std::size_t e = 0; e < n_epochs; ++e)
        out.push_back(&requireEpochWindow(prog, epoch, det, e));
    return out;
}

int
majorityVote(std::size_t malware, std::size_t total)
{
    return total > 0 && 2 * malware >= total ? 1 : 0;
}

int
majorityVote(const std::vector<int> &decisions)
{
    std::size_t malware = 0;
    for (int d : decisions)
        malware += d != 0 ? 1 : 0;
    return majorityVote(malware, decisions.size());
}

EpochPlan::EpochPlan(const std::vector<std::unique_ptr<Hmd>> &detectors,
                     std::uint32_t epoch)
{
    reset(detectors, epoch);
}

void
EpochPlan::reset(const std::vector<std::unique_ptr<Hmd>> &detectors,
                 std::uint32_t epoch)
{
    detectors_ = &detectors;
    epoch_ = epoch;
    programs_ = 0;
    slots_.resize(detectors.size());
    rows_.resize(detectors.size());
    for (std::size_t d = 0; d < detectors.size(); ++d) {
        slots_[d].clear();
        rows_[d].clear();
    }
}

void
EpochPlan::decide(std::vector<std::vector<int>> &decisions) const
{
    score([&](std::size_t d, const std::vector<Slot> &slots,
              const std::vector<double> &scores) {
        const Hmd &det = *(*detectors_)[d];
        for (std::size_t i = 0; i < scores.size(); ++i)
            decisions[slots[i].prog][slots[i].epoch] = det.decision(scores[i]);
    });
}

Rhmd::Rhmd(std::vector<std::unique_ptr<Hmd>> detectors,
           std::vector<double> policy, std::uint64_t seed)
    : detectors_(std::move(detectors)), policy_(std::move(policy)),
      rng_(seed)
{
    fatal_if(detectors_.empty(), "Rhmd needs at least one detector");
    const support::Status pool_ok = validateDetectorPool(detectors_);
    fatal_if(!pool_ok.isOk(), "Rhmd ", pool_ok.message());
    const support::Status policy_ok =
        validatePolicy(policy_, detectors_.size());
    fatal_if(!policy_ok.isOk(), policy_ok.message());

    epoch_ = poolEpoch(detectors_);
    selectionCounts_.assign(detectors_.size(), 0);
}

std::uint32_t
Rhmd::decisionPeriod() const
{
    return epoch_;
}

std::vector<int>
Rhmd::decide(const features::ProgramFeatures &prog)
{
    return std::move(decideBatch({&prog}).front());
}

std::vector<std::vector<int>>
Rhmd::decideBatch(
    const std::vector<const features::ProgramFeatures *> &progs)
{
    EpochPlan plan(detectors_, epoch_);
    const auto pick = [this] {
        const std::size_t d = rng_.weightedIndex(policy_);
        ++selectionCounts_[d];
        epochsCounter().add(1);
        selectionHistogram().observe(static_cast<double>(d));
        return d;
    };
    std::vector<std::vector<int>> decisions(progs.size());
    for (std::size_t p = 0; p < progs.size(); ++p) {
        panic_if(progs[p] == nullptr, "null program in decideBatch");
        decisions[p].assign(plan.draw(*progs[p], pick), 0);
    }
    plan.decide(decisions);
    return decisions;
}

std::vector<double>
Rhmd::realizedPolicy() const
{
    std::size_t total = 0;
    for (std::size_t n : selectionCounts_)
        total += n;
    std::vector<double> realized(selectionCounts_.size(), 0.0);
    if (total == 0)
        return realized;
    for (std::size_t i = 0; i < selectionCounts_.size(); ++i)
        realized[i] = static_cast<double>(selectionCounts_[i]) /
                      static_cast<double>(total);
    return realized;
}

support::Status
Rhmd::validate() const
{
    support::Status status = validateDetectorPool(detectors_);
    if (!status.isOk())
        return status;
    // validatePolicy normalizes in place; validate a copy so a const
    // pool is never mutated.
    std::vector<double> policy = policy_;
    return validatePolicy(policy, detectors_.size());
}

RotatingRhmd::RotatingRhmd(std::vector<std::unique_ptr<Hmd>> candidates,
                           std::size_t active_size,
                           std::uint32_t rotation_epochs,
                           std::uint64_t seed)
    : candidates_(std::move(candidates)), activeSize_(active_size),
      rotationEpochs_(rotation_epochs), rng_(seed)
{
    fatal_if(candidates_.empty(), "RotatingRhmd needs candidates");
    fatal_if(activeSize_ == 0 || activeSize_ > candidates_.size(),
             "active subset size must be in [1, ", candidates_.size(),
             "]");
    fatal_if(rotationEpochs_ == 0, "rotation interval must be positive");
    const support::Status pool_ok = validateDetectorPool(candidates_);
    fatal_if(!pool_ok.isOk(), "RotatingRhmd ", pool_ok.message());
    epoch_ = poolEpoch(candidates_);
    rotate();
}

void
RotatingRhmd::rotate()
{
    const std::vector<std::size_t> perm =
        rng_.permutation(candidates_.size());
    active_.assign(perm.begin(), perm.begin() + activeSize_);
    epochsUntilRotation_ = rotationEpochs_;
}

std::uint32_t
RotatingRhmd::decisionPeriod() const
{
    return epoch_;
}

std::vector<int>
RotatingRhmd::decide(const features::ProgramFeatures &prog)
{
    EpochPlan plan(candidates_, epoch_);
    const auto pick = [this] {
        if (epochsUntilRotation_ == 0)
            rotate();
        --epochsUntilRotation_;
        return active_[rng_.below(active_.size())];
    };
    std::vector<std::vector<int>> decisions(1);
    decisions[0].assign(plan.draw(prog, pick), 0);
    plan.decide(decisions);
    return std::move(decisions[0]);
}

std::vector<std::unique_ptr<Hmd>>
trainSpecDetectors(const std::string &algorithm,
                   const std::vector<features::FeatureSpec> &specs,
                   const features::FeatureCorpus &corpus,
                   const std::vector<std::size_t> &train_idx,
                   std::size_t opcode_top_k, std::uint64_t seed)
{
    fatal_if(specs.empty(), "a detector pool needs at least one spec");
    std::vector<std::uint32_t> periods;
    for (const features::FeatureSpec &spec : specs)
        periods.push_back(spec.period);
    // Checked before training starts, so a pool that cannot be built
    // costs no training and starts no worker thread.
    const support::Status periods_ok = validateEpochPeriods(periods);
    fatal_if(!periods_ok.isOk(), periods_ok.message());
    // Index-derived seeds let the detectors train independently and
    // in parallel.
    return support::parallelMap<std::unique_ptr<Hmd>>(
        specs.size(), [&](std::size_t i) {
            HmdConfig config;
            config.algorithm = algorithm;
            config.specs = {specs[i]};
            config.opcodeTopK = opcode_top_k;
            config.seed = seed + i + 1;
            auto det = std::make_unique<Hmd>(config);
            det->trainOnPrograms(corpus, train_idx);
            return det;
        });
}

std::unique_ptr<Rhmd>
buildRhmd(const std::string &algorithm,
          const std::vector<features::FeatureSpec> &specs,
          const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &train_idx,
          std::size_t opcode_top_k, std::uint64_t seed)
{
    return std::make_unique<Rhmd>(
        trainSpecDetectors(algorithm, specs, corpus, train_idx,
                           opcode_top_k, seed),
        std::vector<double>{}, seed ^ 0xabcdef);
}

support::StatusOr<std::unique_ptr<Rhmd>>
tryMakeRhmd(std::vector<std::unique_ptr<Hmd>> detectors,
            std::vector<double> policy, std::uint64_t seed)
{
    const support::Status pool_ok = validateDetectorPool(detectors);
    if (!pool_ok.isOk())
        return pool_ok;
    const support::Status policy_ok =
        validatePolicy(policy, detectors.size());
    if (!policy_ok.isOk())
        return policy_ok;
    return std::make_unique<Rhmd>(std::move(detectors),
                                  std::move(policy), seed);
}

} // namespace rhmd::core
