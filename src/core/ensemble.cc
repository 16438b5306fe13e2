/**
 * @file
 * Deterministic ensemble implementation.
 */

#include "core/ensemble.hh"

#include "core/rhmd.hh"
#include "support/logging.hh"

namespace rhmd::core
{

EnsembleHmd::EnsembleHmd(std::vector<std::unique_ptr<Hmd>> detectors)
    : detectors_(std::move(detectors))
{
    const support::Status pool_ok = validateDetectorPool(detectors_);
    fatal_if(!pool_ok.isOk(), "ensemble ", pool_ok.message());
    epoch_ = poolEpoch(detectors_);
}

std::uint32_t
EnsembleHmd::decisionPeriod() const
{
    return epoch_;
}

std::vector<int>
EnsembleHmd::decide(const features::ProgramFeatures &prog)
{
    // Every base detector votes on every epoch: one scoreWindows()
    // pass per detector over its leading sub-windows.
    std::vector<std::size_t> votes(prog.windows(epoch_).size(), 0);
    for (const auto &det : detectors_) {
        const std::vector<double> scores =
            det->scoreWindows(epochWindows(prog, epoch_, *det));
        for (std::size_t e = 0; e < scores.size(); ++e)
            votes[e] += det->decision(scores[e]);
    }
    std::vector<int> decisions;
    decisions.reserve(votes.size());
    for (std::size_t v : votes)
        decisions.push_back(majorityVote(v, detectors_.size()));
    return decisions;
}

std::unique_ptr<EnsembleHmd>
buildEnsemble(const std::string &algorithm,
              const std::vector<features::FeatureSpec> &specs,
              const features::FeatureCorpus &corpus,
              const std::vector<std::size_t> &train_idx,
              std::size_t opcode_top_k, std::uint64_t seed)
{
    return std::make_unique<EnsembleHmd>(trainSpecDetectors(
        algorithm, specs, corpus, train_idx, opcode_top_k, seed));
}

} // namespace rhmd::core
