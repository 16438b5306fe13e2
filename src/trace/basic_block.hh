/**
 * @file
 * Static program building blocks: instructions with memory-access
 * behaviour, block terminators, and basic blocks.
 *
 * A program in this library is a statically-known CFG whose dynamic
 * behaviour (branch outcomes, loop trip counts, memory addresses) is
 * sampled during execution. This mirrors what an HMD sees: it never
 * inspects code, only the dynamic instruction/memory/event stream.
 */

#ifndef RHMD_TRACE_BASIC_BLOCK_HH
#define RHMD_TRACE_BASIC_BLOCK_HH

#include <cstdint>
#include <vector>

#include "trace/isa.hh"

namespace rhmd::trace
{

/** How a memory-accessing instruction generates addresses. */
enum class AddrPattern : std::uint8_t
{
    Stride,          ///< walk a region with a fixed byte stride
    RandomInRegion,  ///< uniform within a window of a region
    StackSlot,       ///< fixed offset from the current stack pointer
};

/** Address-generation behaviour of one static memory instruction. */
struct MemRef
{
    AddrPattern pattern = AddrPattern::StackSlot;
    std::uint8_t region = 0;      ///< index into Program::regions
    std::int32_t stride = 8;      ///< Stride: bytes per access;
                                  ///< StackSlot: offset from sp
    std::uint32_t span = 4096;    ///< RandomInRegion: window bytes
    std::uint8_t accessSize = 8;  ///< access width in bytes, a power
                                  ///< of two
    std::uint8_t alignOffset = 0; ///< forces misalignment when != 0
};

/**
 * One static (non-terminator) instruction.
 *
 * Register operands follow the opcode's signature (OpInfo::numSrc /
 * hasDst); positions beyond the signature are ignored. The defaults
 * name the injector-reserved scratch registers, so a
 * default-constructed instruction can never clobber program state —
 * handcrafted test programs and payload builders start safe and opt
 * *into* touching allocatable registers.
 */
struct StaticInst
{
    OpClass op = OpClass::Nop;
    MemRef mem;  ///< meaningful only when accessesMemory(op)
    bool injected = false;  ///< inserted by the evasion rewriter

    RegId dst = kRegScratch1;   ///< written when opInfo(op).hasDst
    RegId src1 = kRegScratch0;  ///< read when numSrc >= 1
    RegId src2 = kRegScratch0;  ///< read when numSrc == 2
};

/** Control-flow kind ending a basic block. */
enum class TermKind : std::uint8_t
{
    CondBranch,  ///< conditional: taken target or fall-through
    Jump,        ///< unconditional intra-function jump
    Call,        ///< call a function, then continue at fallTarget
    Ret,         ///< return to caller (or exit if stack is empty)
    Exit,        ///< program exit (modelled as a syscall)
};

/**
 * Terminator of a basic block.
 *
 * Conditional branches are compare-and-branch: the condition is the
 * comparison of condSrc1 and condSrc2, read by the terminator itself
 * (there is no flags register in this IR; see OpInfo).
 */
struct Terminator
{
    TermKind kind = TermKind::Exit;
    std::uint32_t takenTarget = 0; ///< CondBranch taken / Jump target
    std::uint32_t fallTarget = 0;  ///< CondBranch fall-through,
                                   ///< Call continuation block
    double takenProb = 0.5;        ///< CondBranch taken probability
    std::uint32_t callee = 0;      ///< Call: target function index

    RegId condSrc1 = kRegScratch0; ///< CondBranch: compared registers
    RegId condSrc2 = kRegScratch0;
};

/**
 * A basic block: a straight-line body plus one terminator. The
 * terminator itself corresponds to an executed instruction
 * (jcc/jmp/call/ret/syscall) that the interpreter emits after the
 * body.
 */
struct BasicBlock
{
    std::vector<StaticInst> body;
    Terminator term;
    std::uint64_t address = 0;  ///< code address of the first byte

    /** The opcode class the terminator executes as. */
    OpClass terminatorOp() const;

    /** Number of instructions this block emits per execution. */
    std::size_t instCount() const { return body.size() + 1; }

    /** Encoded size in bytes (body + terminator). */
    std::uint64_t byteSize() const;
};

namespace detail
{

/** Panic on a TermKind outside the enum (terminatorOpClass's cold path). */
[[noreturn]] void badTermKind();

} // namespace detail

/** Opcode class corresponding to a terminator kind. */
inline OpClass
terminatorOpClass(TermKind kind)
{
    switch (kind) {
      case TermKind::CondBranch:
        return OpClass::BranchCond;
      case TermKind::Jump:
        return OpClass::BranchUncond;
      case TermKind::Call:
        return OpClass::Call;
      case TermKind::Ret:
        return OpClass::Ret;
      case TermKind::Exit:
        return OpClass::SystemOp;
    }
    detail::badTermKind();
}

inline OpClass
BasicBlock::terminatorOp() const
{
    return terminatorOpClass(term.kind);
}

} // namespace rhmd::trace

#endif // RHMD_TRACE_BASIC_BLOCK_HH
