/**
 * @file
 * The CFG interpreter: turns a static Program into a dynamic
 * instruction stream, the same role Pin's dynamic trace collection
 * plays in the paper.
 */

#ifndef RHMD_TRACE_EXECUTION_HH
#define RHMD_TRACE_EXECUTION_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hh"
#include "trace/program.hh"

namespace rhmd::trace
{

/** One executed (committed) instruction. */
struct DynInst
{
    std::uint64_t pc = 0;
    OpClass op = OpClass::Nop;
    std::uint8_t size = 0;        ///< encoded bytes

    bool isLoad = false;
    bool isStore = false;
    std::uint64_t addr = 0;       ///< effective address when mem op
    std::uint8_t accessSize = 0;  ///< bytes; a power of two when mem op

    bool isBranch = false;        ///< any control transfer
    bool isCondBranch = false;
    bool taken = false;
    std::uint64_t target = 0;     ///< transfer destination pc

    bool injected = false;        ///< came from the evasion rewriter
};

/**
 * Interprets a Program, sampling branch outcomes, loop trips, and
 * memory addresses; emits the committed stream to a trace sink.
 *
 * A sink is any object with a `void consume(const DynInst &)`
 * member, called once per committed instruction in program order.
 * run() is a template on the sink type, so the call is static and
 * an inline consume (features::FeatureSession's) fuses with the
 * interpreter into one loop.
 *
 * Execution restarts from the entry point when the program exits
 * before the requested instruction budget is reached, modelling a
 * long-running process re-entering its main loop.
 */
class Executor
{
  public:
    /**
     * @param program The program to execute (must outlive the
     *                executor).
     * @param seed    Execution-level randomness (branch outcomes,
     *                address draws). Different seeds give different
     *                dynamic behaviour of the same binary.
     * @param phase_modulation
     *                Model program phases: every 6-24K instructions
     *                the effective conditional-branch probabilities
     *                are re-biased (p -> p^gamma with a freshly drawn
     *                gamma), shifting which loops are hot. Real
     *                workloads exhibit exactly this input-dependent
     *                phase behaviour; it is what makes collection
     *                windows differ over time. Disable for
     *                micro-tests that need exact branch statistics.
     */
    Executor(const Program &program, std::uint64_t seed,
             bool phase_modulation = true);

    /** Emit exactly @p max_insts committed instructions to @p sink. */
    template <typename Sink>
    void run(std::uint64_t max_insts, Sink &sink);

    /** Maximum call-stack depth before calls flatten to fall-through. */
    static constexpr std::size_t kMaxCallDepth = 48;

  private:
    struct Frame
    {
        std::uint32_t function;
        std::uint32_t resumeBlock;
    };

    /** A block's phase-biased taken probability and its phase. */
    struct BiasMemo
    {
        double prob;
        std::uint64_t phase;
    };

    /** Compute the effective address of one memory instruction. */
    std::uint64_t effectiveAddr(const MemRef &mem);

    /** Advance the phase clock; re-roll the branch bias when due. */
    void
    tickPhase()
    {
        if (--phaseCountdown_ == 0) [[unlikely]]
            rollPhase();
    }

    /** Start the next phase: draw a new bias, schedule a task switch. */
    void rollPhase();

    /** Phase-biased taken probability. */
    double biasedTakenProb(double p) const;

    /**
     * The current phase's taken probability of the conditional
     * branch ending block @p flat_block (blockBase_[fn] + block):
     * std::pow runs once per block and phase, not per execution.
     */
    double
    takenProb(std::size_t flat_block, const Terminator &term)
    {
        BiasMemo &memo = bias_[flat_block];
        if (memo.phase != phase_) [[unlikely]] {
            memo.prob = biasedTakenProb(term.takenProb);
            memo.phase = phase_;
        }
        return memo.prob;
    }

    const Program &program_;
    Rng rng_;

    bool phaseModulation_;
    std::uint64_t phaseLen_ = 0;      ///< instructions per phase
    /** Instructions left in the phase (2^64 - 1 when unmodulated). */
    std::uint64_t phaseCountdown_ = 0;
    std::uint64_t phase_ = 0;         ///< phases rolled so far
    double phaseGamma_ = 1.0;         ///< current probability bias
    bool phaseJumpPending_ = false;   ///< re-dispatch at next block

    /** Index of each function's first block in bias_. */
    std::vector<std::uint32_t> blockBase_;
    std::vector<BiasMemo> bias_;

    /** Per-region stride cursors (persist across restarts). */
    std::vector<std::uint64_t> cursors_;
    std::uint64_t stackPtr_;
    std::vector<Frame> callStack_;
};

inline std::uint64_t
Executor::effectiveAddr(const MemRef &mem)
{
    std::uint64_t addr = 0;
    switch (mem.pattern) {
      case AddrPattern::Stride: {
        const MemRegion &region = program_.regions[mem.region];
        const std::uint64_t offset = cursors_[mem.region] % region.size;
        cursors_[mem.region] += static_cast<std::uint64_t>(
            static_cast<std::int64_t>(mem.stride));
        addr = region.base + offset;
        break;
      }
      case AddrPattern::RandomInRegion: {
        const MemRegion &region = program_.regions[mem.region];
        const std::uint64_t window =
            std::min<std::uint64_t>(mem.span, region.size);
        addr = region.base + rng_.below(window);
        break;
      }
      case AddrPattern::StackSlot: {
        addr = stackPtr_ + static_cast<std::uint64_t>(
            static_cast<std::int64_t>(mem.stride));
        // Keep frame-local references inside the stack region.
        const MemRegion &stack = program_.regions[0];
        if (addr < stack.base || addr >= stack.base + stack.size - 16) {
            addr = stack.base +
                   (addr - stack.base) % (stack.size - 16);
        }
        break;
      }
    }
    // Align to the access size, then apply the (intentional)
    // misalignment offset, so the unaligned-access rate is a profile
    // property rather than an artefact of stride/size interactions.
    const std::uint64_t align = std::max<std::uint8_t>(mem.accessSize, 1);
    addr &= ~(align - 1);
    return addr + mem.alignOffset;
}

template <typename Sink>
void
Executor::run(std::uint64_t max_insts, Sink &sink)
{
    std::uint32_t fn = 0;
    std::uint32_t block = 0;
    std::uint64_t emitted = 0;

    const MemRegion &stack_region = program_.regions[0];
    const std::uint64_t stack_top = stack_region.base +
                                    stack_region.size - 64;
    const std::uint64_t stack_limit = stack_region.base + 4096;

    auto restart = [&] {
        fn = 0;
        block = 0;
        callStack_.clear();
        stackPtr_ = stack_top;
    };

    while (emitted < max_insts) {
        const BasicBlock &bb = program_.functions[fn].blocks[block];
        std::uint64_t pc = bb.address;

        for (const StaticInst &sinst : bb.body) {
            const OpInfo &info = opInfo(sinst.op);
            DynInst dyn;
            dyn.pc = pc;
            dyn.op = sinst.op;
            dyn.size = info.bytes;
            dyn.injected = sinst.injected;
            pc += info.bytes;

            if (info.isLoad || info.isStore) {
                dyn.isLoad = info.isLoad;
                dyn.isStore = info.isStore;
                if (sinst.op == OpClass::Push) {
                    stackPtr_ -= 8;
                    if (stackPtr_ < stack_limit)
                        stackPtr_ = stack_top;
                    dyn.addr = stackPtr_;
                    dyn.accessSize = 8;
                } else if (sinst.op == OpClass::Pop) {
                    dyn.addr = stackPtr_;
                    dyn.accessSize = 8;
                    stackPtr_ += 8;
                    if (stackPtr_ > stack_top)
                        stackPtr_ = stack_top;
                } else {
                    dyn.addr = effectiveAddr(sinst.mem);
                    dyn.accessSize = sinst.mem.accessSize;
                }
            }

            sink.consume(dyn);
            tickPhase();
            if (++emitted >= max_insts)
                return;
        }

        // Terminator.
        const Terminator &term = bb.term;
        const OpClass top = bb.terminatorOp();
        DynInst dyn;
        dyn.pc = pc;
        dyn.op = top;
        dyn.size = opInfo(top).bytes;

        const Function &cur_fn = program_.functions[fn];
        std::uint32_t next_fn = fn;
        std::uint32_t next_block = block;
        bool do_restart = false;

        switch (term.kind) {
          case TermKind::CondBranch: {
            dyn.isBranch = true;
            dyn.isCondBranch = true;
            dyn.taken = rng_.chance(takenProb(blockBase_[fn] + block, term));
            const std::uint32_t dest =
                dyn.taken ? term.takenTarget : term.fallTarget;
            dyn.target = cur_fn.blocks[dest].address;
            next_block = dest;
            break;
          }
          case TermKind::Jump: {
            dyn.isBranch = true;
            dyn.taken = true;
            dyn.target = cur_fn.blocks[term.takenTarget].address;
            next_block = term.takenTarget;
            break;
          }
          case TermKind::Call: {
            dyn.isBranch = true;
            dyn.taken = true;
            // The call pushes the return address.
            stackPtr_ -= 8;
            if (stackPtr_ < stack_limit)
                stackPtr_ = stack_top;
            dyn.isStore = true;
            dyn.addr = stackPtr_;
            dyn.accessSize = 8;
            if (callStack_.size() < kMaxCallDepth) {
                callStack_.push_back({fn, term.fallTarget});
                next_fn = term.callee;
                next_block = 0;
                dyn.target =
                    program_.functions[next_fn].blocks[0].address;
            } else {
                // Depth cap: treat as an immediately-returning call.
                stackPtr_ += 8;
                next_block = term.fallTarget;
                dyn.target = cur_fn.blocks[next_block].address;
            }
            break;
          }
          case TermKind::Ret: {
            dyn.isBranch = true;
            dyn.taken = true;
            dyn.isLoad = true;
            dyn.addr = stackPtr_;
            dyn.accessSize = 8;
            stackPtr_ += 8;
            if (stackPtr_ > stack_top)
                stackPtr_ = stack_top;
            if (callStack_.empty()) {
                do_restart = true;
                dyn.target = program_.functions[0].blocks[0].address;
            } else {
                const Frame frame = callStack_.back();
                callStack_.pop_back();
                next_fn = frame.function;
                next_block = frame.resumeBlock;
                dyn.target = program_.functions[next_fn]
                                 .blocks[next_block].address;
            }
            break;
          }
          case TermKind::Exit: {
            // Modelled as a syscall; control restarts at the entry.
            do_restart = true;
            dyn.isBranch = true;
            dyn.taken = true;
            dyn.target = program_.functions[0].blocks[0].address;
            break;
          }
        }

        sink.consume(dyn);
        tickPhase();
        ++emitted;

        if (do_restart) {
            restart();
        } else {
            fn = next_fn;
            block = next_block;
        }

        if (phaseJumpPending_) {
            // Task switch: unwind and enter a random function.
            phaseJumpPending_ = false;
            callStack_.clear();
            stackPtr_ = stack_top;
            fn = static_cast<std::uint32_t>(
                rng_.below(program_.functions.size()));
            block = 0;
        }
    }
}

} // namespace rhmd::trace

#endif // RHMD_TRACE_EXECUTION_HH
