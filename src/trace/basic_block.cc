/**
 * @file
 * Basic-block helpers.
 */

#include "trace/basic_block.hh"

#include "support/logging.hh"

namespace rhmd::trace
{

void
detail::badTermKind()
{
    rhmd_panic("unreachable terminator kind");
}

std::uint64_t
BasicBlock::byteSize() const
{
    std::uint64_t bytes = opInfo(terminatorOp()).bytes;
    for (const StaticInst &inst : body)
        bytes += opInfo(inst.op).bytes;
    return bytes;
}

} // namespace rhmd::trace
