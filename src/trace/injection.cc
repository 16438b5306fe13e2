/**
 * @file
 * Evasion rewriter implementation.
 */

#include "trace/injection.hh"

#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/execution.hh"

namespace rhmd::trace
{

bool
isInjectable(OpClass op)
{
    return !isControlFlow(op) && op != OpClass::Push &&
           op != OpClass::Pop;
}

StaticInst
makePayloadInst(OpClass op, std::int32_t stride)
{
    fatal_if(!isInjectable(op),
             "cannot inject opcode '", opName(op),
             "' without changing program semantics");
    StaticInst inst;
    inst.op = op;
    inst.injected = true;
    // Operands stay on the injector-reserved scratch registers (the
    // StaticInst defaults): the payload may only read and write t0/t1,
    // which generated program code never names, so the liveness-based
    // preservation checker can prove the payload observationally dead.
    inst.dst = kRegScratch1;
    inst.src1 = kRegScratch0;
    inst.src2 = kRegScratch1;
    if (accessesMemory(inst.op)) {
        if (stride == 0) {
            // Default: walk the stack region with an ordinary local-
            // variable stride. A constant-address payload would
            // flood the delta histogram's zero bin — a degenerate
            // signature no real program produces — so injected
            // memory traffic mimics plain frame accesses instead.
            inst.mem.pattern = AddrPattern::Stride;
            inst.mem.region = 0;
            inst.mem.stride = 64;
            inst.mem.accessSize = 8;
        } else {
            // Memory-feature attacks: controlled reference distance
            // walking the stack-adjacent region.
            inst.mem.pattern = AddrPattern::Stride;
            inst.mem.region = 0;
            inst.mem.stride = stride;
            inst.mem.accessSize = 8;
        }
    }
    return inst;
}

namespace
{

/** True when the level injects at this block. */
bool
isSite(const BasicBlock &block, InjectLevel level)
{
    if (level == InjectLevel::Block)
        return true;
    return block.term.kind == TermKind::Ret;
}

/** Core rewriting loop: payload chosen per site by a callback. */
template <typename PayloadFn>
Program
rewrite(const Program &original, InjectLevel level, PayloadFn &&payload_fn,
        const SiteFilter &filter)
{
    Program modified = original;
    for (std::size_t f = 0; f < modified.functions.size(); ++f) {
        Function &fn = modified.functions[f];
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            BasicBlock &block = fn.blocks[b];
            if (!isSite(block, level))
                continue;
            const std::vector<StaticInst> payload = payload_fn();
            if (filter && !filter(f, b, payload))
                continue;
            block.body.insert(block.body.end(), payload.begin(),
                              payload.end());
        }
    }
    modified.layoutCode();
    modified.validate();
    return modified;
}

} // namespace

Program
Injector::apply(const Program &original, InjectLevel level,
                const std::vector<StaticInst> &payload,
                const SiteFilter &filter)
{
    return rewrite(original, level, [&] { return payload; }, filter);
}

Program
Injector::applyWeighted(
    const Program &original, InjectLevel level, std::size_t count,
    const std::vector<std::pair<OpClass, double>> &weighted_ops,
    std::uint64_t seed, const SiteFilter &filter)
{
    fatal_if(weighted_ops.empty(),
             "weighted injection requires at least one opcode");
    Rng rng(seed);
    std::vector<double> weights;
    weights.reserve(weighted_ops.size());
    for (const auto &[op, weight] : weighted_ops) {
        fatal_if(weight < 0.0, "weighted injection weights must be >= 0");
        weights.push_back(weight);
    }
    return rewrite(original, level, [&] {
        std::vector<StaticInst> payload;
        payload.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t pick = rng.weightedIndex(weights);
            payload.push_back(makePayloadInst(weighted_ops[pick].first));
        }
        return payload;
    }, filter);
}

Program
Injector::applyRandom(const Program &original, InjectLevel level,
                      std::size_t count, std::uint64_t seed,
                      const SiteFilter &filter)
{
    Rng rng(seed);
    // Candidate pool: every semantics-free opcode class.
    std::vector<OpClass> pool;
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        const OpClass op = opFromIndex(i);
        if (isInjectable(op))
            pool.push_back(op);
    }
    return rewrite(original, level, [&] {
        std::vector<StaticInst> payload;
        payload.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            payload.push_back(
                makePayloadInst(pool[rng.below(pool.size())]));
        return payload;
    }, filter);
}

double
staticOverhead(const Program &original, const Program &modified)
{
    const double base = static_cast<double>(original.textBytes());
    panic_if(base <= 0.0, "original program has no code");
    return (static_cast<double>(modified.textBytes()) - base) / base;
}

namespace
{

/** Counts injected vs original committed instructions. */
class OverheadSink
{
  public:
    void
    consume(const DynInst &inst)
    {
        ++total_;
        if (!inst.injected)
            ++original_;
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t original() const { return original_; }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t original_ = 0;
};

} // namespace

double
dynamicOverhead(const Program &modified, std::uint64_t original_insts,
                std::uint64_t exec_seed)
{
    fatal_if(original_insts == 0, "need a positive instruction budget");
    OverheadSink sink;
    Executor executor(modified, exec_seed);
    // Run a budget large enough that the injected/original ratio is
    // a steady-state measurement, then report extra work per original
    // instruction.
    executor.run(original_insts, sink);
    panic_if(sink.original() == 0,
             "execution committed no original instructions");
    return static_cast<double>(sink.total()) /
               static_cast<double>(sink.original()) - 1.0;
}

} // namespace rhmd::trace
