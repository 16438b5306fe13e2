/**
 * @file
 * Abstract instruction-set model.
 *
 * The RHMD feature families do not need a real decoder — they need a
 * stable set of opcode *classes* whose per-window frequencies are the
 * Instructions feature, plus enough attributes (memory access,
 * control flow, size, latency) to drive the memory feature, the
 * microarchitectural event counters, and the CPI model. The classes
 * below are modelled on the x86 instruction groups that prior HMD
 * work (Demme et al., Ozsoy et al.) tracked.
 */

#ifndef RHMD_TRACE_ISA_HH
#define RHMD_TRACE_ISA_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace rhmd::trace
{

/**
 * Abstract architectural register identifiers.
 *
 * The register file exists for the static-analysis layer: liveness
 * and the semantic-preservation checker reason about which values an
 * injected instruction could clobber. The dynamic side (executor,
 * feature extraction, uarch models) never reads register operands, so
 * the file is deliberately small and unified (no separate FP bank).
 *
 * Convention (an ABI the generator and the evasion rewriter share):
 *  - r0            return value / exit code
 *  - r1..r3        argument registers (conservatively live at calls)
 *  - r0..r11       allocatable by generated program code
 *  - t0, t1        injector-reserved scratch; generated code never
 *                  names them, so they are dead at every program
 *                  point of an original program
 *  - sp            stack pointer (implicit in push/pop/call/ret and
 *                  stack-slot addressing)
 */
using RegId = std::uint8_t;

constexpr RegId kRegRet = 0;        ///< r0: ABI return value
constexpr RegId kRegArg0 = 1;       ///< r1: first argument register
constexpr RegId kRegArg1 = 2;       ///< r2
constexpr RegId kRegArg2 = 3;       ///< r3
constexpr std::size_t kNumGpRegs = 12;  ///< r0..r11 allocatable
constexpr RegId kRegScratch0 = 12;  ///< t0: injector-reserved
constexpr RegId kRegScratch1 = 13;  ///< t1: injector-reserved
constexpr RegId kRegSp = 14;        ///< sp
constexpr std::size_t kNumRegs = 15;

/** Register name for diagnostics ("r0".."r11", "t0", "t1", "sp"). */
std::string_view regName(RegId reg);

/** True for the injector-reserved scratch registers. */
bool isScratchReg(RegId reg);

/**
 * Opcode classes. Order is part of the library ABI: feature vectors
 * index histograms by the numeric value, and serialized models
 * reference these indices.
 */
enum class OpClass : std::uint8_t
{
    IntAdd,      ///< add/inc/adc
    IntSub,      ///< sub/dec/sbb/neg
    IntMul,      ///< imul/mul
    IntDiv,      ///< idiv/div
    IntCmp,      ///< cmp
    IntTest,     ///< test
    LogicAnd,    ///< and
    LogicOr,     ///< or
    LogicXor,    ///< xor
    ShiftLeft,   ///< shl/sal
    ShiftRight,  ///< shr/sar
    Rotate,      ///< rol/ror
    MovRegReg,   ///< register-to-register mov
    MovImm,      ///< immediate mov
    Lea,         ///< lea
    Load,        ///< memory read (mov r, [m] and friends)
    Store,       ///< memory write (mov [m], r)
    Push,        ///< push (stack store)
    Pop,         ///< pop (stack load)
    BranchCond,  ///< jcc
    BranchUncond,///< jmp
    Call,        ///< call
    Ret,         ///< ret
    Nop,         ///< nop / multi-byte nop
    FpAdd,       ///< x87/scalar SSE fp add/sub
    FpMul,       ///< fp multiply
    FpDiv,       ///< fp divide/sqrt
    SseVec,      ///< packed SSE/AVX integer or fp op
    StringOp,    ///< rep movs/stos/scas
    AesRound,    ///< AES-NI / crypto round primitives
    Xchg,        ///< xchg/lock-prefixed RMW (atomic)
    SystemOp,    ///< int/syscall/cpuid/rdtsc
    NumOpClasses ///< count sentinel, not a real class
};

/** Number of real opcode classes. */
constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumOpClasses);

/**
 * Static attributes of an opcode class.
 *
 * The operand signature (numSrc/hasDst) drives the dataflow analyses:
 * an instruction reads its first numSrc source registers and, when
 * hasDst, writes its destination register. There is no hidden flags
 * register — conditional branches in this IR are compare-and-branch
 * (RISC-style) and read their two condition registers directly, so
 * straight-line arithmetic never carries an implicit dependence into
 * a terminator.
 */
struct OpInfo
{
    std::string_view name;  ///< mnemonic-like label
    bool isLoad;            ///< reads memory
    bool isStore;           ///< writes memory
    bool isCondBranch;      ///< conditional control flow
    bool isUncondCtrl;      ///< jmp/call/ret
    std::uint8_t bytes;     ///< typical encoded size in bytes
    std::uint8_t latency;   ///< typical execute latency in cycles
    std::uint8_t numSrc;    ///< register sources read (0-2)
    bool hasDst;            ///< writes a destination register
};

namespace detail
{

//                              name       ld     st     cbr    uctl   bytes lat src dst
inline constexpr std::array<OpInfo, kNumOpClasses> kOpTable{{
    /* IntAdd */       {"add",       false, false, false, false, 3, 1,  2, true},
    /* IntSub */       {"sub",       false, false, false, false, 3, 1,  2, true},
    /* IntMul */       {"imul",      false, false, false, false, 4, 3,  2, true},
    /* IntDiv */       {"idiv",      false, false, false, false, 3, 20, 2, true},
    /* IntCmp */       {"cmp",       false, false, false, false, 3, 1,  2, false},
    /* IntTest */      {"test",      false, false, false, false, 3, 1,  2, false},
    /* LogicAnd */     {"and",       false, false, false, false, 3, 1,  2, true},
    /* LogicOr */      {"or",        false, false, false, false, 3, 1,  2, true},
    /* LogicXor */     {"xor",       false, false, false, false, 3, 1,  2, true},
    /* ShiftLeft */    {"shl",       false, false, false, false, 3, 1,  2, true},
    /* ShiftRight */   {"shr",       false, false, false, false, 3, 1,  2, true},
    /* Rotate */       {"rol",       false, false, false, false, 3, 1,  2, true},
    /* MovRegReg */    {"mov_rr",    false, false, false, false, 2, 1,  1, true},
    /* MovImm */       {"mov_imm",   false, false, false, false, 5, 1,  0, true},
    /* Lea */          {"lea",       false, false, false, false, 4, 1,  1, true},
    // Load/Store read their address base through src1; Store's data
    // operand is src2.
    /* Load */         {"load",      true,  false, false, false, 4, 4,  1, true},
    /* Store */        {"store",     false, true,  false, false, 4, 1,  2, false},
    /* Push */         {"push",      false, true,  false, false, 1, 1,  1, false},
    /* Pop */          {"pop",       true,  false, false, false, 1, 1,  0, true},
    /* BranchCond */   {"jcc",       false, false, true,  false, 2, 1,  2, false},
    /* BranchUncond */ {"jmp",       false, false, false, true,  2, 1,  0, false},
    /* Call */         {"call",      false, true,  false, true,  5, 2,  0, false},
    /* Ret */          {"ret",       true,  false, false, true,  1, 2,  1, false},
    /* Nop */          {"nop",       false, false, false, false, 1, 1,  0, false},
    /* FpAdd */        {"fadd",      false, false, false, false, 4, 3,  2, true},
    /* FpMul */        {"fmul",      false, false, false, false, 4, 5,  2, true},
    /* FpDiv */        {"fdiv",      false, false, false, false, 4, 15, 2, true},
    /* SseVec */       {"sse_vec",   false, false, false, false, 5, 2,  2, true},
    /* StringOp */     {"rep_movs",  true,  true,  false, false, 2, 4,  2, true},
    /* AesRound */     {"aesenc",    false, false, false, false, 5, 4,  2, true},
    /* Xchg */         {"xchg",      true,  true,  false, false, 3, 8,  2, true},
    // SystemOp is not control flow for CFG purposes: syscalls resume
    // at the next instruction. The Exit terminator tags its dynamic
    // instance as a branch instead. It reads the syscall number and
    // writes the kernel's return value.
    /* SystemOp */     {"syscall",   false, false, false, false, 2, 30, 1, true},
}};

/** Panic on an OpClass outside the table (the cold path of opInfo). */
[[noreturn]] void badOpClass(std::size_t index);

} // namespace detail

/**
 * Attribute lookup for an opcode class. Inline: the simulation loop
 * reads the table once per committed instruction.
 */
inline const OpInfo &
opInfo(OpClass op)
{
    const auto index = static_cast<std::size_t>(op);
    if (index >= kNumOpClasses) [[unlikely]]
        detail::badOpClass(index);
    return detail::kOpTable[index];
}

/** Mnemonic-like name of an opcode class. */
std::string_view opName(OpClass op);

/** True for any instruction that may redirect control flow. */
bool isControlFlow(OpClass op);

/** True for any instruction that touches memory. */
bool accessesMemory(OpClass op);

/** OpClass from its numeric histogram index (panics if out of range). */
OpClass opFromIndex(std::size_t index);

} // namespace rhmd::trace

#endif // RHMD_TRACE_ISA_HH
