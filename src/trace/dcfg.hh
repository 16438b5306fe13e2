/**
 * @file
 * Dynamic control-flow-graph recovery.
 *
 * The paper's evasion methodology (Sec. 5, Fig. 5) builds the DCFG of
 * a malware binary through Pin, because malware sources are not
 * available. This module plays the same role on the attacker's side
 * of our substrate: it watches a committed instruction stream and
 * reconstructs the executed basic blocks and their edges, which is
 * where the rewriter's injection sites come from.
 */

#ifndef RHMD_TRACE_DCFG_HH
#define RHMD_TRACE_DCFG_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "trace/execution.hh"

namespace rhmd::trace
{

/**
 * Observes a trace and recovers the dynamic CFG. Blocks end at
 * control-flow instructions; the recovered nodes correspond to the
 * executed static basic blocks of the traced program.
 */
class DcfgBuilder
{
  public:
    /** A recovered basic block. */
    struct Node
    {
        std::uint64_t startPc = 0;
        std::vector<OpClass> ops;       ///< body + terminator
        std::uint64_t execCount = 0;
        /** successor start pc -> traversal count */
        std::map<std::uint64_t, std::uint64_t> successors;
        bool endsInRet = false;
    };

    /** Trace-sink entry point: observe one committed instruction. */
    void consume(const DynInst &inst);

    /** Recovered nodes keyed by block start pc. */
    const std::unordered_map<std::uint64_t, Node> &nodes() const
    {
        return nodes_;
    }

    /** Total number of distinct recovered edges. */
    std::size_t edgeCount() const;

    /** Total dynamic instructions observed. */
    std::uint64_t instCount() const { return instCount_; }

    /** Number of recovered blocks ending in a return. */
    std::size_t retBlockCount() const;

  private:
    std::unordered_map<std::uint64_t, Node> nodes_;
    std::vector<OpClass> pendingOps_;
    std::uint64_t pendingStart_ = 0;
    bool inBlock_ = false;
    std::uint64_t instCount_ = 0;
};

} // namespace rhmd::trace

#endif // RHMD_TRACE_DCFG_HH
