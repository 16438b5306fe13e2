/**
 * @file
 * CFG interpreter implementation.
 */

#include "trace/execution.hh"

#include <cmath>

namespace rhmd::trace
{

Executor::Executor(const Program &program, std::uint64_t seed,
                   bool phase_modulation)
    : program_(program), rng_(seed),
      phaseModulation_(phase_modulation),
      cursors_(program.regions.size(), 0),
      stackPtr_(0)
{
    program_.validate();
    const MemRegion &stack = program_.regions[0];
    stackPtr_ = stack.base + stack.size - 64;
    if (phaseModulation_) {
        phaseLen_ = 6000 + rng_.below(18000);
        phaseCountdown_ = phaseLen_;
    } else {
        phaseCountdown_ = ~std::uint64_t{0};
    }
    // Phase 0 has no bias (gamma 1), so every memo starts valid with
    // the block's own taken probability.
    blockBase_.reserve(program_.functions.size());
    for (const Function &function : program_.functions) {
        blockBase_.push_back(static_cast<std::uint32_t>(bias_.size()));
        for (const BasicBlock &bb : function.blocks)
            bias_.push_back({bb.term.takenProb, 0});
    }
    callStack_.reserve(kMaxCallDepth);
}

void
Executor::rollPhase()
{
    if (!phaseModulation_) {
        phaseCountdown_ = ~std::uint64_t{0};
        return;
    }
    phaseCountdown_ = phaseLen_;
    ++phase_;
    // Lognormal bias exponent around 1: gamma < 1 deepens loops
    // (taken probabilities rise), gamma > 1 flattens them.
    phaseGamma_ = std::exp(rng_.gaussian() * 0.55);
    // A new phase usually means the program moved on to another
    // task: re-dispatch control to a fresh function at the next
    // block boundary.
    phaseJumpPending_ = true;
}

double
Executor::biasedTakenProb(double p) const
{
    if (!phaseModulation_ || phaseGamma_ == 1.0)
        return p;
    if (p <= 0.0 || p >= 1.0)
        return p;
    return std::pow(p, phaseGamma_);
}

} // namespace rhmd::trace
