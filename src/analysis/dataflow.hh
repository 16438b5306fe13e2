/**
 * @file
 * Classic dataflow analyses over the trace IR's register model.
 *
 * Liveness works on the powerset lattice of the 15-register file (a
 * RegSet bitmask) with union as join. The transfer function is
 * monotone and the lattice has finite height, so the round-robin
 * fixpoint iteration below terminates.
 *
 * Liveness is a backward may-analysis: live_in(b) = use(b) ∪
 * (live_out(b) − def(b)), live_out(b) = ∪ live_in(succ). The
 * semantic-preservation checker (preservation.hh) is built on the
 * per-point form.
 */

#ifndef RHMD_ANALYSIS_DATAFLOW_HH
#define RHMD_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/program.hh"

namespace rhmd::analysis
{

/** A set of architectural registers, bit i = register id i. */
using RegSet = std::uint32_t;

/** Singleton set for one register. */
RegSet regBit(trace::RegId reg);

/** Membership test. */
bool contains(RegSet set, trace::RegId reg);

/** Diagnostic rendering: "{r1, r5, sp}". */
std::string regSetName(RegSet set);

/** Registers read by one body instruction (including sp for
 *  stack-relative addressing and stack push data). */
RegSet instUses(const trace::StaticInst &inst);

/** Registers written by one body instruction. */
RegSet instDefs(const trace::StaticInst &inst);

/**
 * Registers read by a terminator: compare-and-branch condition
 * sources, the ABI argument registers at calls (the callee may read
 * them), the return-value register at rets and exits, sp for any
 * stack-engaging transfer.
 */
RegSet termUses(const trace::Terminator &term);

/**
 * Registers written by a terminator: calls define the return value
 * and clobber the caller-saved scratch registers; call/ret adjust sp.
 */
RegSet termDefs(const trace::Terminator &term);

/** Intra-function successor block indexes of a terminator. */
std::vector<std::uint32_t> successorBlocks(const trace::Terminator &term);

/**
 * Per-block liveness solution for one function, over *observable*
 * uses only: reads made by injected instructions are ignored
 * (terminator reads always count). An injected instruction's
 * consumers are themselves candidates for removal, so "live" means
 * "may influence the original program's behaviour" — exactly the
 * property the semantic-preservation rule needs. On code with no
 * injected instruction this is plain liveness.
 */
class Liveness
{
  public:
    /** Run the backward fixpoint over @p fn (kept by reference;
     *  the function must outlive the solution). */
    static Liveness compute(const trace::Function &fn);

    RegSet liveIn(std::size_t block) const;
    RegSet liveOut(std::size_t block) const;

    /** Live registers at the pre-terminator point — where the
     *  evasion rewriter appends its payload. */
    RegSet liveBeforeTerm(std::size_t block) const;

    /**
     * Per-point solution for one block: result[i] is the live set
     * immediately *before* body[i]; result[body.size()] is the live
     * set before the terminator. Recomputed on demand by a backward
     * scan seeded from liveOut.
     */
    std::vector<RegSet> livePoints(std::size_t block) const;

    /** Fixpoint rounds until stabilization (for tests). */
    std::size_t iterations() const { return iterations_; }

  private:
    const trace::Function *fn_ = nullptr;
    std::vector<RegSet> liveIn_;
    std::vector<RegSet> liveOut_;
    std::size_t iterations_ = 0;
};

} // namespace rhmd::analysis

#endif // RHMD_ANALYSIS_DATAFLOW_HH
