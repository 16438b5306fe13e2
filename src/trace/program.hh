/**
 * @file
 * Whole-program representation: functions of basic blocks plus the
 * memory regions the program's data accesses fall into.
 */

#ifndef RHMD_TRACE_PROGRAM_HH
#define RHMD_TRACE_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/basic_block.hh"

namespace rhmd::trace
{

/** A contiguous data region (heap arena, mapped file, etc.). */
struct MemRegion
{
    std::uint64_t base = 0;
    std::uint64_t size = 0;
};

/** A function: an entry block (index 0) plus its block list. */
struct Function
{
    std::vector<BasicBlock> blocks;
};

/**
 * A complete synthetic program.
 *
 * The ground-truth label (malware or benign) lives here; detectors
 * never read it, only the evaluation harness does.
 */
struct Program
{
    std::string name;
    bool malware = false;
    std::uint32_t family = 0;  ///< index into the profile list
    std::uint64_t seed = 0;    ///< per-program generation seed

    std::vector<Function> functions;  ///< entry is functions[0]
    std::vector<MemRegion> regions;   ///< data regions; [0] is stack

    /** Total code bytes ("text segment" size). */
    std::uint64_t textBytes() const;

    /**
     * Assign code addresses to every block: functions are laid out
     * sequentially from @p text_base, blocks within a function
     * back-to-back. Must be called after any structural change
     * (e.g. instruction injection) so PCs stay consistent.
     */
    void layoutCode(std::uint64_t text_base = 0x400000);

    /**
     * Validate structural invariants (branch targets in range,
     * callees in range, entry function exists, regions non-empty).
     * Panics on violation; used by tests and the generator.
     */
    void validate() const;
};

} // namespace rhmd::trace

#endif // RHMD_TRACE_PROGRAM_HH
