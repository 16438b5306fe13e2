/**
 * @file
 * Performance-monitoring unit implementation.
 */

#include "uarch/perf_counters.hh"

#include "support/logging.hh"

namespace rhmd::uarch
{

void
saturatingDelta(const EventCounts &cumulative, const EventCounts &base,
                EventCounts &out)
{
    for (std::size_t e = 0; e < kNumEvents; ++e)
        out[e] = cumulative[e] >= base[e] ? cumulative[e] - base[e] : 0;
}

void
eventRates(const EventCounts &counts, double insts, double *out)
{
    for (std::size_t e = 0; e < kNumEvents; ++e)
        out[e] = static_cast<double>(counts[e]) / insts;
}

std::string_view
eventName(Event event)
{
    switch (event) {
      case Event::Loads: return "loads";
      case Event::Stores: return "stores";
      case Event::CondBranches: return "cond_branches";
      case Event::TakenBranches: return "taken_branches";
      case Event::Mispredicts: return "mispredicts";
      case Event::DCacheMisses: return "dcache_misses";
      case Event::ICacheMisses: return "icache_misses";
      case Event::Unaligned: return "unaligned";
      case Event::Calls: return "calls";
      case Event::Returns: return "returns";
      case Event::Syscalls: return "syscalls";
      case Event::Atomics: return "atomics";
      case Event::NumEvents: break;
    }
    rhmd_panic("bad event id");
}

PerfMonitor::PerfMonitor(const PmuConfig &config)
    : config_(config),
      icache_(config.icache),
      dcache_(config.dcache),
      bimodal_(config.predictorTableBits),
      gshare_(config.predictorTableBits, config.predictorTableBits)
{
    counts_.fill(0);
}

void
PerfMonitor::bump(Event event, std::uint64_t n)
{
    counts_[static_cast<std::size_t>(event)] += n;
}

StepOutcome
PerfMonitor::step(const trace::DynInst &inst)
{
    StepOutcome outcome;

    // Instruction fetch.
    outcome.icacheMisses = icache_.access(inst.pc, inst.size);
    bump(Event::ICacheMisses, outcome.icacheMisses);

    // Data access.
    if (inst.isLoad || inst.isStore) {
        if (inst.isLoad)
            bump(Event::Loads);
        if (inst.isStore)
            bump(Event::Stores);
        outcome.dcacheMisses = dcache_.access(inst.addr, inst.accessSize);
        bump(Event::DCacheMisses, outcome.dcacheMisses);
        if (inst.accessSize > 1 &&
            (inst.addr % inst.accessSize) != 0) {
            outcome.unaligned = true;
            bump(Event::Unaligned);
        }
    }

    // Control flow.
    if (inst.isCondBranch) {
        bump(Event::CondBranches);
        BranchPredictor &pred = config_.useGshare
            ? static_cast<BranchPredictor &>(gshare_)
            : static_cast<BranchPredictor &>(bimodal_);
        outcome.mispredicted = pred.predict(inst.pc) != inst.taken;
        if (outcome.mispredicted)
            bump(Event::Mispredicts);
        pred.update(inst.pc, inst.taken);
    }
    if (inst.isBranch && inst.taken)
        bump(Event::TakenBranches);

    switch (inst.op) {
      case trace::OpClass::Call:
        bump(Event::Calls);
        break;
      case trace::OpClass::Ret:
        bump(Event::Returns);
        break;
      case trace::OpClass::SystemOp:
        bump(Event::Syscalls);
        break;
      case trace::OpClass::Xchg:
        bump(Event::Atomics);
        break;
      default:
        break;
    }

    return outcome;
}

void
PerfMonitor::reset()
{
    counts_.fill(0);
    icache_.reset();
    dcache_.reset();
    bimodal_.reset();
    gshare_.reset();
}

} // namespace rhmd::uarch
