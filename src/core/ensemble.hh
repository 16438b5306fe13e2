/**
 * @file
 * Deterministic ensemble HMD — the design of Khasawneh et al.
 * (RAID 2015) that the paper's related-work section contrasts with
 * RHMD: an ensemble also combines diverse base detectors, but with a
 * deterministic combiner (majority vote), so it is itself a fixed
 * classifier that can be reverse-engineered and evaded. Implemented
 * so that contrast can be measured (see bench_ablation_ensemble).
 */

#ifndef RHMD_CORE_ENSEMBLE_HH
#define RHMD_CORE_ENSEMBLE_HH

#include <memory>
#include <vector>

#include "core/hmd.hh"

namespace rhmd::core
{

/**
 * Majority-vote ensemble over trained base detectors. Epochs run at
 * the longest base period; every base detector votes on its own
 * leading sub-window of the epoch (base periods must divide the
 * epoch length). Ties flag malware.
 */
class EnsembleHmd : public Detector
{
  public:
    /** @param detectors trained base detectors (takes ownership). */
    explicit EnsembleHmd(std::vector<std::unique_ptr<Hmd>> detectors);

    std::uint32_t decisionPeriod() const override;
    std::vector<int>
    decide(const features::ProgramFeatures &prog) override;

    const std::vector<std::unique_ptr<Hmd>> &detectors() const
    {
        return detectors_;
    }
    std::size_t poolSize() const { return detectors_.size(); }

  private:
    std::vector<std::unique_ptr<Hmd>> detectors_;
    std::uint32_t epoch_ = 0;
};

/**
 * Convenience builder mirroring buildRhmd: trainSpecDetectors()
 * combined into an ensemble.
 */
std::unique_ptr<EnsembleHmd> buildEnsemble(
    const std::string &algorithm,
    const std::vector<features::FeatureSpec> &specs,
    const features::FeatureCorpus &corpus,
    const std::vector<std::size_t> &train_idx, std::size_t opcode_top_k,
    std::uint64_t seed);

} // namespace rhmd::core

#endif // RHMD_CORE_ENSEMBLE_HH
