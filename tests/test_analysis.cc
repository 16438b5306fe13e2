/**
 * @file
 * Tests of the static verification layer: diagnostics, liveness on
 * handcrafted CFGs with known solutions, the CFG verifier's accept
 * and reject paths, the semantic-preservation checker (paper-mode
 * payloads pass, a clobbering mutation is rejected), the injection
 * gate, and admission of untrusted programs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/diagnostics.hh"
#include "analysis/preservation.hh"
#include "analysis/verifier.hh"
#include "core/evasion.hh"
#include "core/experiment.hh"
#include "trace/dcfg.hh"
#include "trace/execution.hh"
#include "trace/generator.hh"
#include "trace/injection.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::analysis;
using trace::OpClass;
using trace::RegId;
using trace::TermKind;

constexpr RegId kR0 = 0;
constexpr RegId kR1 = 1;
constexpr RegId kR2 = 2;
constexpr RegId kR3 = 3;

trace::StaticInst
alu(OpClass op, RegId dst, RegId src1, RegId src2)
{
    trace::StaticInst inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = src1;
    inst.src2 = src2;
    return inst;
}

trace::StaticInst
movImm(RegId dst)
{
    trace::StaticInst inst;
    inst.op = OpClass::MovImm;
    inst.dst = dst;
    return inst;
}

trace::Terminator
condBranch(std::uint32_t taken, std::uint32_t fall, RegId c1, RegId c2,
           double prob = 0.5)
{
    trace::Terminator term;
    term.kind = TermKind::CondBranch;
    term.takenTarget = taken;
    term.fallTarget = fall;
    term.takenProb = prob;
    term.condSrc1 = c1;
    term.condSrc2 = c2;
    return term;
}

trace::Terminator
jump(std::uint32_t target)
{
    trace::Terminator term;
    term.kind = TermKind::Jump;
    term.takenTarget = target;
    return term;
}

trace::Terminator
exitTerm()
{
    trace::Terminator term;
    term.kind = TermKind::Exit;
    return term;
}

/**
 * The classic diamond:
 *   b0: r1 = imm; r2 = imm;          if (r1 ? r2) b1 else b2
 *   b1: r3 = r1 + r2;                goto b3
 *   b2: r3 = r2;                     goto b3
 *   b3: r0 = r3 + r3;                exit        (exit reads r0)
 */
trace::Program
diamondProgram()
{
    trace::Program prog;
    prog.name = "diamond";
    prog.regions = {{0x1000, 4096}, {0x100000, 4096}};

    trace::Function fn;
    fn.blocks.resize(4);
    fn.blocks[0].body = {movImm(kR1), movImm(kR2)};
    fn.blocks[0].term = condBranch(1, 2, kR1, kR2);
    fn.blocks[1].body = {alu(OpClass::IntAdd, kR3, kR1, kR2)};
    fn.blocks[1].term = jump(3);
    fn.blocks[2].body = {alu(OpClass::MovRegReg, kR3, kR2, kR2)};
    fn.blocks[2].term = jump(3);
    fn.blocks[3].body = {alu(OpClass::IntAdd, kR0, kR3, kR3)};
    fn.blocks[3].term = exitTerm();
    prog.functions.push_back(std::move(fn));
    return prog;
}

/** One generated program, with the full register post-pass applied. */
trace::Program
generated(std::uint64_t seed = 55)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 1;
    config.seed = seed;
    return trace::ProgramGenerator(config).generateCorpus().back();
}

// --- diagnostics ----------------------------------------------------

TEST(Diagnostics, CountsAndSummary)
{
    Report report;
    EXPECT_TRUE(report.clean());
    report.error("cfg", "x", 0, 1, 2, "boom");
    report.warning("cfg", "y", 0, kNoIndex, kNoIndex, "meh");
    report.note("dcfg", "z", kNoIndex, kNoIndex, kNoIndex, "fyi");
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.errorCount(), 1u);
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_EQ(report.noteCount(), 1u);
    EXPECT_EQ(report.summary(), "1 error, 1 warning, 1 note");

    Report other;
    other.merge(report);
    EXPECT_EQ(other.errorCount(), 1u);
    EXPECT_EQ(other.findings().size(), 3u);
}

TEST(Diagnostics, JsonLinesShape)
{
    Report report;
    report.error("cfg", "branch-target-range", 2, 3, kNoIndex,
                 "say \"hi\"");
    const std::string json = report.toJsonLines("prog_1");
    EXPECT_NE(json.find("\"program\":\"prog_1\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"branch-target-range\""),
              std::string::npos);
    EXPECT_NE(json.find("\"function\":2"), std::string::npos);
    EXPECT_NE(json.find("\"inst\":null"), std::string::npos);
    // Quotes in messages are escaped.
    EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
}

// --- dataflow: liveness --------------------------------------------

TEST(Liveness, DiamondHasKnownSolution)
{
    const trace::Program prog = diamondProgram();
    const Liveness live = Liveness::compute(prog.functions[0]);

    EXPECT_EQ(live.liveIn(0), 0u);
    EXPECT_EQ(live.liveOut(0), regBit(kR1) | regBit(kR2));
    EXPECT_EQ(live.liveIn(1), regBit(kR1) | regBit(kR2));
    EXPECT_EQ(live.liveIn(2), regBit(kR2));
    EXPECT_EQ(live.liveOut(1), regBit(kR3));
    EXPECT_EQ(live.liveOut(2), regBit(kR3));
    EXPECT_EQ(live.liveIn(3), regBit(kR3));
    EXPECT_EQ(live.liveOut(3), 0u);
    // The exit observes the program's return value.
    EXPECT_EQ(live.liveBeforeTerm(3), regBit(kR0));
}

TEST(Liveness, PerPointSolution)
{
    const trace::Program prog = diamondProgram();
    const Liveness live = Liveness::compute(prog.functions[0]);
    const std::vector<RegSet> points = live.livePoints(0);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0], 0u);                       // before r1 = imm
    EXPECT_EQ(points[1], regBit(kR1));              // before r2 = imm
    EXPECT_EQ(points[2], regBit(kR1) | regBit(kR2)); // before branch
}

TEST(Liveness, LoopFixpointConverges)
{
    // b0: r1 = imm; goto b1
    // b1: r1 = r1 + r1; if (r1 ? r1) b1 else b2
    // b2: r0 = r1; exit
    trace::Program prog;
    prog.name = "loop";
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(3);
    fn.blocks[0].body = {movImm(kR1)};
    fn.blocks[0].term = jump(1);
    fn.blocks[1].body = {alu(OpClass::IntAdd, kR1, kR1, kR1)};
    fn.blocks[1].term = condBranch(1, 2, kR1, kR1, 0.7);
    fn.blocks[2].body = {alu(OpClass::MovRegReg, kR0, kR1, kR1)};
    fn.blocks[2].term = exitTerm();
    prog.functions.push_back(std::move(fn));

    const Liveness live = Liveness::compute(prog.functions[0]);
    // r1 is loop-carried: live around the back edge.
    EXPECT_EQ(live.liveIn(1), regBit(kR1));
    EXPECT_EQ(live.liveOut(1), regBit(kR1));
    EXPECT_GE(live.iterations(), 2u);
}

TEST(Liveness, CallsUseArgsAndClobberScratch)
{
    // b0: r1 = imm; r4 = imm; call f1 -> b1
    // b1: r0 = r4; ret
    trace::Program prog;
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(2);
    fn.blocks[0].body = {movImm(kR1), movImm(4)};
    fn.blocks[0].term.kind = TermKind::Call;
    fn.blocks[0].term.callee = 0;
    fn.blocks[0].term.fallTarget = 1;
    fn.blocks[1].body = {alu(OpClass::MovRegReg, kR0, 4, 4)};
    fn.blocks[1].term.kind = TermKind::Ret;
    prog.functions.push_back(std::move(fn));

    const Liveness live = Liveness::compute(prog.functions[0]);
    // The call reads the argument registers, so r1 is live before it;
    // r4 is preserved across the call and live into b1.
    EXPECT_TRUE(contains(live.liveBeforeTerm(0), kR1));
    EXPECT_TRUE(contains(live.liveBeforeTerm(0), 4));
    // The call defines r0, so r0 is not live across it even though
    // the ret observes it.
    EXPECT_FALSE(contains(live.liveIn(0), kR0));
    // Scratch registers are clobbered at calls, never live into them.
    EXPECT_FALSE(contains(live.liveBeforeTerm(0), trace::kRegScratch0));
}

TEST(Liveness, ObservableUsesIgnoreInjectedReaders)
{
    // An injected chain t0 = r1 + r1 does not make r1 live when only
    // observable uses count — the whole chain is removable.
    trace::Program prog;
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(1);
    trace::StaticInst reader =
        alu(OpClass::IntAdd, trace::kRegScratch0, kR1, kR1);
    reader.injected = true;
    fn.blocks[0].body = {movImm(kR0), reader};
    fn.blocks[0].term = exitTerm();
    prog.functions.push_back(std::move(fn));

    const Liveness plain = Liveness::compute(prog.functions[0]);
    EXPECT_TRUE(contains(plain.liveIn(0), kR1));

    const Liveness observable =
        Liveness::compute(prog.functions[0], {true});
    EXPECT_FALSE(contains(observable.liveIn(0), kR1));
}

// --- CFG verifier ---------------------------------------------------

TEST(CfgVerifier, AcceptsHandcraftedAndGeneratedPrograms)
{
    Report report;
    EXPECT_TRUE(checkProgramCfg(diamondProgram(), report));
    EXPECT_TRUE(report.clean());

    Report gen_report;
    EXPECT_TRUE(checkProgramCfg(generated(), gen_report));
    EXPECT_TRUE(gen_report.clean());
}

TEST(CfgVerifier, RejectsOutOfRangeBranchTarget)
{
    trace::Program prog = diamondProgram();
    prog.functions[0].blocks[0].term.takenTarget = 40;
    Report report;
    EXPECT_FALSE(checkProgramCfg(prog, report));
    ASSERT_GE(report.findings().size(), 1u);
    EXPECT_EQ(report.findings()[0].code, "branch-target-range");
    EXPECT_EQ(report.findings()[0].block, 0u);
}

TEST(CfgVerifier, RejectsControlFlowInBody)
{
    trace::Program prog = diamondProgram();
    trace::StaticInst rogue;
    rogue.op = OpClass::Call;
    prog.functions[0].blocks[1].body.push_back(rogue);
    Report report;
    EXPECT_FALSE(checkProgramCfg(prog, report));
    EXPECT_EQ(report.findings()[0].code, "control-flow-in-body");
    EXPECT_EQ(report.findings()[0].inst, 1u);
}

TEST(CfgVerifier, RejectsStructuralDamage)
{
    {   // No function may lack a return/exit terminator.
        trace::Program prog = diamondProgram();
        prog.functions[0].blocks[3].term = jump(0);
        Report report;
        EXPECT_FALSE(checkProgramCfg(prog, report));
        EXPECT_EQ(report.findings()[0].code, "no-exit");
    }
    {   // Memory regions must be disjoint.
        trace::Program prog = diamondProgram();
        prog.regions[1].base = prog.regions[0].base + 8;
        Report report;
        EXPECT_FALSE(checkProgramCfg(prog, report));
        EXPECT_EQ(report.findings()[0].code, "region-overlap");
    }
    {   // Register operands must name real registers.
        trace::Program prog = diamondProgram();
        prog.functions[0].blocks[1].body[0].src1 = 99;
        Report report;
        EXPECT_FALSE(checkProgramCfg(prog, report));
        EXPECT_EQ(report.findings()[0].code, "register-range");
    }
    {   // Probabilities are probabilities.
        trace::Program prog = diamondProgram();
        prog.functions[0].blocks[0].term.takenProb = 1.5;
        Report report;
        EXPECT_FALSE(checkProgramCfg(prog, report));
        EXPECT_EQ(report.findings()[0].code, "taken-prob-range");
    }
    {   // Empty programs are malformed.
        trace::Program prog;
        Report report;
        EXPECT_FALSE(checkProgramCfg(prog, report));
        EXPECT_EQ(report.errorCount(), 2u);  // no functions, no regions
    }
}

TEST(CfgVerifier, WarnsWithoutFailing)
{
    // b0 always branches to b2, so the fall-through edge to b1 is
    // dead (b1 stays structurally reachable through it); b3 has no
    // predecessors at all.
    trace::Program prog;
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(4);
    fn.blocks[0].body = {movImm(kR0)};
    fn.blocks[0].term = condBranch(2, 1, kR0, kR0, 1.0);
    fn.blocks[1].body = {movImm(kR1)};
    fn.blocks[1].term = jump(2);
    fn.blocks[2].term = exitTerm();
    fn.blocks[3].term = jump(2);
    prog.functions.push_back(std::move(fn));

    Report report;
    EXPECT_TRUE(checkProgramCfg(prog, report));  // warnings don't fail
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_EQ(report.findings()[0].code, "dead-fallthrough");

    // The unreachable-block lint is opt-in (generated corpora contain
    // legitimate skip-jump dead blocks).
    CfgOptions pedantic;
    pedantic.flagUnreachableBlocks = true;
    Report pedantic_report;
    EXPECT_TRUE(checkProgramCfg(prog, pedantic_report, pedantic));
    EXPECT_EQ(pedantic_report.warningCount(), 2u);
}

TEST(CfgVerifier, DcfgOfExecutedProgramIsConsistent)
{
    const trace::Program prog = generated(7);
    trace::DcfgBuilder dcfg;
    trace::Executor(prog, 1234).run(30000, dcfg);
    ASSERT_FALSE(dcfg.nodes().empty());

    Report report;
    EXPECT_TRUE(checkDcfg(dcfg, report));
    EXPECT_EQ(report.errorCount(), 0u);
}

// --- semantic preservation -----------------------------------------

TEST(Preservation, PaperModePayloadsVerify)
{
    const trace::Program prog = generated(21);
    // Every injectable opcode family the paper's strategies draw
    // from: ALU, FP, loads with controlled stride, dilution nops,
    // syscall/atomic drivers for the architectural detectors.
    for (const OpClass op :
         {OpClass::IntAdd, OpClass::FpMul, OpClass::Load, OpClass::Store,
          OpClass::Nop, OpClass::SystemOp, OpClass::Xchg}) {
        const trace::Program modified = trace::Injector::apply(
            prog, trace::InjectLevel::Block,
            {trace::makePayloadInst(op)});
        const Report report = verifyProgram(modified);
        EXPECT_TRUE(report.clean())
            << trace::opName(op) << ": " << report.summary();
    }
}

TEST(Preservation, RejectsClobberingInjection)
{
    // b0: r1 = imm; if (r1 ? r1) b1 else b1 — r1 is live at the end
    // of b0, so an injected write to r1 is a clobber.
    trace::Program prog;
    prog.name = "clobber";
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(2);
    fn.blocks[0].body = {movImm(kR1)};
    fn.blocks[0].term = condBranch(1, 1, kR1, kR1);
    fn.blocks[1].body = {alu(OpClass::MovRegReg, kR0, kR1, kR1)};
    fn.blocks[1].term = exitTerm();
    prog.functions.push_back(std::move(fn));

    trace::Program mutated = prog;
    trace::StaticInst payload = trace::makePayloadInst(OpClass::IntAdd);
    payload.dst = kR1;  // the mutation: write a live register
    mutated.functions[0].blocks[0].body.push_back(payload);

    Report report;
    EXPECT_FALSE(checkPreservation(mutated, report));
    ASSERT_EQ(report.errorCount(), 1u);
    const Finding &finding = report.findings()[0];
    EXPECT_EQ(finding.code, "clobbering-injection");
    EXPECT_EQ(finding.block, 0u);
    EXPECT_NE(finding.message.find("live register"), std::string::npos);
    EXPECT_NE(finding.message.find("r1"), std::string::npos);

    // The same payload at the end of b1 is dead (only r0 is live) and
    // passes.
    trace::Program ok = prog;
    ok.functions[0].blocks[1].body.push_back(payload);
    Report ok_report;
    EXPECT_TRUE(checkPreservation(ok, ok_report));
}

TEST(Preservation, RejectsEscapingAndStackPayloads)
{
    trace::Program prog = diamondProgram();
    trace::StaticInst branch;
    branch.op = OpClass::BranchUncond;
    branch.injected = true;
    prog.functions[0].blocks[1].body.push_back(branch);

    trace::StaticInst push;
    push.op = OpClass::Push;
    push.injected = true;
    prog.functions[0].blocks[2].body.push_back(push);

    Report report;
    EXPECT_FALSE(checkPreservation(prog, report));
    EXPECT_EQ(report.errorCount(), 2u);
    EXPECT_NE(report.findings()[0].message.find("escapes"),
              std::string::npos);
    EXPECT_NE(report.findings()[1].message.find("stack"),
              std::string::npos);
}

TEST(Preservation, StoreRules)
{
    // Original program reads region 1; region 2 is write-safe scratch.
    trace::Program prog = diamondProgram();
    prog.regions.push_back({0x200000, 4096});
    trace::StaticInst load;
    load.op = OpClass::Load;
    load.dst = kR2;
    load.src1 = kR1;
    load.mem.pattern = trace::AddrPattern::Stride;
    load.mem.region = 1;
    prog.functions[0].blocks[0].body.insert(
        prog.functions[0].blocks[0].body.begin(), load);

    trace::StaticInst store = trace::makePayloadInst(OpClass::Store);
    store.mem.pattern = trace::AddrPattern::RandomInRegion;

    {   // Store into a region the program reads: clobber.
        trace::Program mutated = prog;
        store.mem.region = 1;
        mutated.functions[0].blocks[3].body.push_back(store);
        Report report;
        EXPECT_FALSE(checkPreservation(mutated, report));
        EXPECT_NE(report.findings()[0].message.find("reads"),
                  std::string::npos);
    }
    {   // Store into a never-read region: dead.
        trace::Program mutated = prog;
        store.mem.region = 2;
        mutated.functions[0].blocks[3].body.push_back(store);
        Report report;
        EXPECT_TRUE(checkPreservation(mutated, report));
    }
    {   // Store into a live stack frame slot: clobber.
        trace::Program mutated = prog;
        store.mem.pattern = trace::AddrPattern::StackSlot;
        mutated.functions[0].blocks[3].body.push_back(store);
        Report report;
        EXPECT_FALSE(checkPreservation(mutated, report));
        EXPECT_NE(report.findings()[0].message.find("stack frame"),
                  std::string::npos);
    }
}

// --- injection gate -------------------------------------------------

TEST(InjectionGate, FiltersClobberingSitesAndCounts)
{
    // Same shape as RejectsClobberingInjection: the payload writes r1,
    // which is live at the end of b0 but dead at the end of b1.
    trace::Program prog;
    prog.name = "gated";
    prog.regions = {{0x1000, 4096}};
    trace::Function fn;
    fn.blocks.resize(2);
    fn.blocks[0].body = {movImm(kR1)};
    fn.blocks[0].term = condBranch(1, 1, kR1, kR1);
    fn.blocks[1].body = {alu(OpClass::MovRegReg, kR0, kR1, kR1)};
    fn.blocks[1].term = exitTerm();
    prog.functions.push_back(std::move(fn));

    trace::StaticInst payload = trace::makePayloadInst(OpClass::IntAdd);
    payload.dst = kR1;

    InjectionGate gate(prog);
    EXPECT_FALSE(gate.admits(0, 0, {payload}));
    EXPECT_TRUE(gate.admits(0, 1, {payload}));
    EXPECT_NE(gate.rejectReason(0, 0, {payload}).find("live"),
              std::string::npos);
    EXPECT_EQ(gate.rejectReason(0, 1, {payload}), "");

    const trace::Program modified = trace::Injector::apply(
        prog, trace::InjectLevel::Block, {payload}, gate.filter());
    EXPECT_EQ(gate.admitted(), 1u);
    EXPECT_EQ(gate.rejected(), 1u);
    EXPECT_TRUE(modified.functions[0].blocks[0].body.back().injected ==
                false);
    EXPECT_TRUE(modified.functions[0].blocks[1].body.back().injected);
    // What the gate admitted verifies.
    EXPECT_TRUE(verifyProgram(modified).clean());
}

TEST(InjectionGate, ScratchPayloadsAdmittedEverywhere)
{
    const trace::Program prog = generated(33);
    InjectionGate gate(prog);
    const std::vector<trace::StaticInst> payload{
        trace::makePayloadInst(OpClass::IntMul),
        trace::makePayloadInst(OpClass::Load)};
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        for (std::size_t b = 0; b < prog.functions[f].blocks.size(); ++b)
            EXPECT_TRUE(gate.admits(f, b, payload));
    }
}

// --- generator register discipline ---------------------------------

TEST(RegisterAssignment, GeneratedCodeNeverNamesScratch)
{
    const trace::Program prog = generated(91);
    for (const trace::Function &fn : prog.functions) {
        for (const trace::BasicBlock &block : fn.blocks) {
            for (const trace::StaticInst &inst : block.body) {
                const auto &info = trace::opInfo(inst.op);
                if (info.hasDst) {
                    EXPECT_FALSE(trace::isScratchReg(inst.dst));
                }
                if (info.numSrc >= 1) {
                    EXPECT_FALSE(trace::isScratchReg(inst.src1));
                }
                if (info.numSrc >= 2) {
                    EXPECT_FALSE(trace::isScratchReg(inst.src2));
                }
            }
            if (block.term.kind == TermKind::CondBranch) {
                EXPECT_FALSE(trace::isScratchReg(block.term.condSrc1));
                EXPECT_FALSE(trace::isScratchReg(block.term.condSrc2));
            }
        }
    }
}

// --- verifier pass manager -----------------------------------------

TEST(Verifier, DefaultPipelineAndShortCircuit)
{
    const Verifier verifier;
    EXPECT_EQ(verifier.passCount(), 2u);
    EXPECT_EQ(Verifier::empty().passCount(), 0u);

    EXPECT_TRUE(verifier.run(generated(3)).clean());

    // A structurally broken program stops at the CFG pass even though
    // it also carries a clobbering injection — dataflow never runs on
    // unresolvable indices.
    trace::Program broken = diamondProgram();
    broken.functions[0].blocks[0].term.takenTarget = 40;
    trace::StaticInst payload = trace::makePayloadInst(OpClass::IntAdd);
    payload.dst = kR1;
    broken.functions[0].blocks[1].body.push_back(payload);
    const Report report = verifier.run(broken);
    EXPECT_FALSE(report.clean());
    for (const Finding &finding : report.findings())
        EXPECT_EQ(finding.pass, "cfg");
}

// --- evasion wiring -------------------------------------------------

TEST(EvasionAudit, GateCountersSurfaceThroughEvadeRewrite)
{
    const trace::Program prog = generated(13);
    core::EvasionPlan plan;
    plan.strategy = core::EvasionStrategy::Random;
    plan.count = 2;
    core::EvasionAudit audit;
    const trace::Program modified =
        core::evadeRewrite(prog, plan, nullptr, &audit);
    EXPECT_EQ(audit.rejectedSites, 0u);
    EXPECT_EQ(audit.admittedSites,
              trace::Injector::siteCount(prog, plan.level));
    EXPECT_EQ(audit.verifiedPrograms, 1u);
    EXPECT_TRUE(verifyProgram(modified).clean());
}

// --- admission ------------------------------------------------------

TEST(Admission, AcceptsVerifiedRejectsClobbered)
{
    core::ExperimentConfig config;
    config.benignCount = 8;
    config.malwareCount = 16;
    config.periods = {10000};
    config.traceInsts = 30000;
    config.seed = 5;
    const core::Experiment exp = core::Experiment::build(config);

    EXPECT_TRUE(verifyProgram(exp.programs().front()).clean());

    trace::Program clobbered = exp.programs().front();
    trace::StaticInst payload = trace::makePayloadInst(OpClass::IntSub);
    // The exit code is observable: r0 is live right before the exit
    // terminator, so writing it there is a clobber.
    payload.dst = trace::kRegRet;
    clobbered.functions[0].blocks.back().body.push_back(payload);
    const Report report = verifyProgram(clobbered);
    EXPECT_FALSE(report.clean());
    const auto error = std::find_if(
        report.findings().begin(), report.findings().end(),
        [](const Finding &finding) {
            return finding.severity == Severity::Error;
        });
    ASSERT_NE(error, report.findings().end());
    EXPECT_EQ(error->pass, "preservation");
}

} // namespace
