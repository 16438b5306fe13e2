/**
 * @file
 * The evasion rewriter: controlled instruction insertion into a
 * program, mirroring the paper's Pin-based dynamic injection
 * framework (Sec. 5, Fig. 5).
 *
 * Two insertion disciplines are supported, exactly as in the paper:
 *  - Block level: the payload is inserted before every control-flow
 *    altering instruction, i.e. at the end of every basic block body.
 *  - Function level: the payload is inserted before every return
 *    instruction.
 *
 * Insertion never alters program semantics in our model: injected
 * instructions are appended to block bodies and never change control
 * flow or the address streams of original instructions.
 */

#ifndef RHMD_TRACE_INJECTION_HH
#define RHMD_TRACE_INJECTION_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "trace/program.hh"

namespace rhmd::trace
{

/** Where the payload is inserted. */
enum class InjectLevel : std::uint8_t
{
    Block,     ///< before every control-flow instruction
    Function,  ///< before every return instruction
};

/**
 * True when an opcode can be injected without altering program
 * semantics: control-flow opcodes would redirect execution, and
 * unbalanced stack operations (push/pop) would corrupt the stack.
 */
bool isInjectable(OpClass op);

/**
 * Build a payload instruction for an opcode class. Memory-accessing
 * opcodes get a cache-friendly stack-region reference (the cheapest
 * semantics-free choice an attacker would make); @p stride lets
 * memory-feature attacks control the reference distance instead.
 * Fatal for non-injectable opcodes.
 */
StaticInst makePayloadInst(OpClass op, std::int32_t stride = 0);

/**
 * Per-site admission predicate for the rewriter: called with the
 * function index, block index, and the payload about to be appended
 * to that block. Returning false skips the site (the program keeps
 * its original body there). The static-analysis layer supplies
 * liveness-based filters (analysis::InjectionGate); the rewriter
 * itself stays analysis-agnostic.
 */
using SiteFilter = std::function<bool(
    std::size_t fn, std::size_t block,
    const std::vector<StaticInst> &payload)>;

/**
 * Instruction-injection rewriter. All methods return a modified
 * *copy* of the program with code addresses re-laid-out, leaving the
 * original untouched. An empty @p filter admits every site.
 */
class Injector
{
  public:
    /**
     * Insert the same payload at every site of the given level.
     * This is the paper's deterministic strategy (least-weight
     * injection uses a payload of N copies of one opcode).
     */
    static Program apply(const Program &original, InjectLevel level,
                         const std::vector<StaticInst> &payload,
                         const SiteFilter &filter = {});

    /**
     * Weighted strategy: at each site, each of the @p count payload
     * slots is an opcode drawn with probability proportional to its
     * weight. The draw happens once per site (static rewriting), so
     * repeated executions of a site execute identical code, matching
     * the paper's framework.
     */
    static Program applyWeighted(
        const Program &original, InjectLevel level, std::size_t count,
        const std::vector<std::pair<OpClass, double>> &weighted_ops,
        std::uint64_t seed, const SiteFilter &filter = {});

    /**
     * Random strategy (the paper's control experiment): each site
     * receives @p count opcodes sampled uniformly from the
     * non-control-flow classes.
     */
    static Program applyRandom(const Program &original, InjectLevel level,
                               std::size_t count, std::uint64_t seed,
                               const SiteFilter &filter = {});
};

/** Static (text-size) overhead of a rewritten program vs original. */
double staticOverhead(const Program &original, const Program &modified);

/**
 * Dynamic overhead in *executed instructions*: run the modified
 * program until @p original_insts non-injected instructions commit
 * and report extra executed instructions as a fraction. This is the
 * execution-time proxy the paper's Fig. 9 'dynamic overhead' tracks
 * (the attacker cares that the malware still makes progress).
 */
double dynamicOverhead(const Program &modified,
                       std::uint64_t original_insts,
                       std::uint64_t exec_seed);

} // namespace rhmd::trace

#endif // RHMD_TRACE_INJECTION_HH
