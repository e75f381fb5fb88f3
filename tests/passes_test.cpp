// Unit tests for the optimization passes (§IV) on hand-built captured
// functions, plus end-to-end equivalence checks after each pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "core/code_cache.hpp"
#include "core/passes/passes.hpp"
#include "core/rewriter.hpp"
#include "ir/captured.hpp"
#include "jit/assembler.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

ir::CapturedFunction singleBlock(std::vector<isa::Instruction> instrs) {
  ir::CapturedFunction fn;
  const int id = fn.newBlock(0x1000, 0);
  fn.block(id).instrs.assign(instrs.begin(), instrs.end());
  fn.block(id).term.kind = ir::Terminator::Kind::Ret;
  return fn;
}

PassOptions only(bool peephole, bool crossIterLoads) {
  PassOptions options;
  options.peephole = peephole;
  options.mergeBlocks = false;  // structure-sensitive tests pick passes
  options.crossIterLoads = crossIterLoads;
  return options;
}

// The peephole switch carries XMM copy coalescing only, which takes
// copies between two different registers. No pass removes a same-register
// move: the tracer captures none on any workload, bench or example.

TEST(Peephole, RemovesSameRegisterMoves) {
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rax)),
      makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm1),
                Operand::makeReg(Reg::xmm1)),
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rbx)),
  });
  runPasses(fn, only(true, false));
  ASSERT_EQ(fn.block(0).instrs.size(), 3u);
  EXPECT_EQ(fn.block(0).instrs[0].mnemonic, Mnemonic::Mov);
  EXPECT_EQ(fn.block(0).instrs[1].mnemonic, Mnemonic::Movapd);
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Add);
}

TEST(Peephole, Keeps32BitSameRegisterMov) {
  // mov eax, eax zero-extends: NOT a no-op, and it stays.
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 4, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rax)),
  });
  runPasses(fn, only(true, false));
  EXPECT_EQ(fn.block(0).instrs.size(), 1u);
}

// No pass removes a compare: with every block-local pass on, each compare
// below stays, whether or not its flags are read.

TEST(DeadFlags, RemovesUnconsumedCompare) {
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Cmp, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rbx)),
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rcx),
                Operand::makeImm(1)),
  });
  runPasses(fn, only(true, true));
  ASSERT_EQ(fn.block(0).instrs.size(), 2u);
  EXPECT_EQ(fn.block(0).instrs[0].mnemonic, Mnemonic::Cmp);
}

TEST(DeadFlags, KeepsCompareFeedingTerminator) {
  ir::CapturedFunction fn;
  const int head = fn.newBlock(0x1000, 0);
  const int a = fn.newBlock(0x1010, 0);
  const int b = fn.newBlock(0x1020, 0);
  fn.block(head).instrs = {makeInstr(Mnemonic::Cmp, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rbx))};
  fn.block(head).term = {ir::Terminator::Kind::CondJmp, Cond::E, a, b};
  fn.block(a).term.kind = ir::Terminator::Kind::Ret;
  fn.block(b).term.kind = ir::Terminator::Kind::Ret;
  runPasses(fn, only(true, true));
  ASSERT_EQ(fn.block(head).instrs.size(), 1u);
  EXPECT_EQ(fn.block(head).instrs[0].mnemonic, Mnemonic::Cmp);
}

TEST(DeadFlags, KeepsCompareConsumedAcrossJump) {
  // Block 0: cmp; jmp block 1. Block 1: setcc reads the flags.
  ir::CapturedFunction fn;
  const int head = fn.newBlock(0x1000, 0);
  const int next = fn.newBlock(0x1010, 0);
  fn.block(head).instrs = {makeInstr(Mnemonic::Cmp, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rbx))};
  fn.block(head).term = {ir::Terminator::Kind::Jmp, Cond::O, next, -1};
  isa::Instruction setcc =
      makeInstr(Mnemonic::Setcc, 1, Operand::makeReg(Reg::rax));
  setcc.cond = Cond::E;
  fn.block(next).instrs = {setcc};
  fn.block(next).term.kind = ir::Terminator::Kind::Ret;
  runPasses(fn, only(true, true));
  ASSERT_EQ(fn.block(head).instrs.size(), 1u)
      << "cross-block consumer must keep the compare alive";
  EXPECT_EQ(fn.block(head).instrs[0].mnemonic, Mnemonic::Cmp);
}

// Lane reuse (runCrossIterLoads): a scalar re-load of a lane a register
// still holds becomes a register copy, until a store or a write to the
// lane's base register kills the fact.

TEST(RedundantLoads, ForwardsSecondIdenticalLoad) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                Operand::makeReg(Reg::xmm0)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm2),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, true));
  ASSERT_EQ(fn.block(0).instrs.size(), 3u);
  // The second load became a register copy.
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Movapd);
  EXPECT_EQ(fn.block(0).instrs[2].ops[1].reg, Reg::xmm0);
}

TEST(RedundantLoads, InvalidatedByStore) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  const MemOperand other{.base = Reg::rsi};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(other),
                Operand::makeReg(Reg::xmm1)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm2),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, true));
  // [rsi] may alias [rdi+16]: the second load must stay a real load.
  ASSERT_EQ(fn.block(0).instrs.size(), 3u);
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Movsd);
  EXPECT_TRUE(fn.block(0).instrs[2].ops[1].isMem());
}

TEST(RedundantLoads, InvalidatedByAddressRegisterWrite) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rdi),
                Operand::makeImm(8)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm2),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, true));
  ASSERT_EQ(fn.block(0).instrs.size(), 3u);
  EXPECT_TRUE(fn.block(0).instrs[2].ops[1].isMem());
}

TEST(RedundantLoads, PoolConstantsSurviveStores) {
  MemOperand pool;
  pool.ripRelative = true;
  pool.poolSlot = 0;
  const MemOperand store{.base = Reg::rsi};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(pool)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(store),
                Operand::makeReg(Reg::xmm0)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm1),
                Operand::makeMem(pool)),
  });
  fn.addPoolConstant(0x3FF0000000000000ull);  // 1.0
  runPasses(fn, only(false, true));
  // Pool slots are immutable: the reload is forwarded despite the store.
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Movapd);
}

// --- the tracer's zero-seeded accumulator fold ------------------------------
//
// Config::setFoldZeroAccumulator: "pxor acc, acc; addsd acc, y" is captured
// as a copy of y when the lane states prove it exact. The subjects are
// built with jit::Assembler and return acc in xmm0; each fold is checked
// on the captured code and bit-exact against the original.

using zero_add_t = double (*)(const double*, double*);

// The subject's captured instructions, all blocks in order.
std::vector<isa::Instruction> capturedInstrs(const RewrittenFunction& f) {
  std::vector<isa::Instruction> out;
  for (const ir::Block& block : f.handle()->captured.blocks())
    out.insert(out.end(), block.instrs.begin(), block.instrs.end());
  return out;
}

size_t countMnemonic(const std::vector<isa::Instruction>& instrs,
                     Mnemonic mnemonic) {
  return static_cast<size_t>(
      std::ranges::count(instrs, mnemonic, &isa::Instruction::mnemonic));
}

// Rewrites `subject` with both pointers unknown, then runs the original
// and the rewrite on the same inputs; -0.0 and signaling NaNs are left
// out, the fold's documented differences.
RewrittenFunction rewriteAndCompare(const ExecMemory& subject,
                                    const PassOptions& passes = {}) {
  Config config;
  config.setReturnKind(ReturnKind::Float);
  Rewriter rewriter{config};
  rewriter.passes() = passes;
  const ArgValue args[] = {ArgValue::fromPtr(nullptr),
                           ArgValue::fromPtr(nullptr)};
  auto rewritten = rewriter.rewrite(subject.data(), args);
  EXPECT_TRUE(rewritten.ok()) << rewritten.error().message();
  if (!rewritten.ok()) return {};
  const auto original = subject.entry<zero_add_t>();
  const auto spec = rewritten->as<zero_add_t>();
  for (const double y : {1.5, -2.25, 0.0, 1e300, -7e-310,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    double wantStore = 3.0, gotStore = 3.0;
    const double want = original(&y, &wantStore);
    const double got = spec(&y, &gotStore);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << y;
    EXPECT_EQ(std::bit_cast<uint64_t>(gotStore),
              std::bit_cast<uint64_t>(wantStore))
        << y;
  }
  return std::move(*rewritten);
}

ExecMemory finalizeSubject(jit::Assembler& as) {
  as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

void zeroXmm1(jit::Assembler& as) {
  as.emit(makeInstr(Mnemonic::Pxor, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm1)));
}

TEST(ZeroAdd, FoldsSeededAccumulator) {
  // pxor xmm1, xmm1; addsd xmm1, [rdi] -> movsd xmm1, [rdi] (the return
  // copy then coalesces it into xmm0)
  jit::Assembler as;
  zeroXmm1(as);
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  const ExecMemory subject = finalizeSubject(as);
  const RewrittenFunction f = rewriteAndCompare(subject);
  ASSERT_TRUE(f);
  const std::vector<isa::Instruction> instrs = capturedInstrs(f);
  EXPECT_EQ(countMnemonic(instrs, Mnemonic::Addsd), 0u) << f.dumpCaptured();
  const auto load = std::ranges::find_if(instrs, [](const auto& in) {
    return in.mnemonic == Mnemonic::Movsd && in.ops[1].isMem() &&
           in.ops[1].mem.base == Reg::rdi;
  });
  EXPECT_NE(load, instrs.end()) << f.dumpCaptured();
}

TEST(ZeroAdd, RegisterSourceBecomesMovq) {
  // A register source whose high lane is a real 0 (a movsd load) makes the
  // fold a full-register copy: the tracer emits movapd, which zeroes the
  // high lane exactly like the pxor did (and like the IR-level fold's movq).
  jit::Assembler as;
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm2),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  zeroXmm1(as);
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm2)));
  const ExecMemory subject = finalizeSubject(as);
  const RewrittenFunction f = rewriteAndCompare(subject);
  ASSERT_TRUE(f);
  EXPECT_EQ(countMnemonic(capturedInstrs(f), Mnemonic::Addsd), 0u)
      << f.dumpCaptured();
  // The copy is the tracer's; copy coalescing (on the peephole switch)
  // then folds it and the return copy away, so look before it runs.
  PassOptions noCoalescing;
  noCoalescing.peephole = false;
  const RewrittenFunction folded = rewriteAndCompare(subject, noCoalescing);
  ASSERT_TRUE(folded);
  const std::vector<isa::Instruction> instrs = capturedInstrs(folded);
  EXPECT_EQ(countMnemonic(instrs, Mnemonic::Addsd), 0u)
      << folded.dumpCaptured();
  const auto copy = std::ranges::find_if(instrs, [](const auto& in) {
    return in.mnemonic == Mnemonic::Movapd && in.ops[1].isReg() &&
           in.ops[1].reg == Reg::xmm2;
  });
  EXPECT_NE(copy, instrs.end()) << folded.dumpCaptured();
}

TEST(ZeroAdd, InterveningUseBlocksTheFold) {
  // The store reads the seed, which materializes it: the addsd is kept.
  jit::Assembler as;
  zeroXmm1(as);
  as.emit(makeInstr(Mnemonic::Movsd, 8,
                    Operand::makeMem(MemOperand{.base = Reg::rsi}),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  const ExecMemory subject = finalizeSubject(as);
  const RewrittenFunction f = rewriteAndCompare(subject);
  ASSERT_TRUE(f);
  EXPECT_EQ(countMnemonic(capturedInstrs(f), Mnemonic::Addsd), 1u)
      << f.dumpCaptured();
}

TEST(ZeroAdd, NonZeroPoolConstantNotTouched) {
  // An accumulator seeded with 1.0 is materialized from the pool and the
  // addsd is kept.
  jit::Assembler as;
  as.movRegImm(Reg::rax, static_cast<int64_t>(std::bit_cast<uint64_t>(1.0)));
  as.emit(makeInstr(Mnemonic::Movq, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::rax)));
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  const ExecMemory subject = finalizeSubject(as);
  const RewrittenFunction f = rewriteAndCompare(subject);
  ASSERT_TRUE(f);
  const std::vector<isa::Instruction> instrs = capturedInstrs(f);
  EXPECT_EQ(countMnemonic(instrs, Mnemonic::Addsd), 1u) << f.dumpCaptured();
  const auto seed = std::ranges::find_if(instrs, [&](const auto& in) {
    if (in.nops != 2 || !in.ops[1].isMem() || in.ops[1].mem.poolSlot < 0)
      return false;
    const ir::PoolEntry& entry =
        f.handle()->captured.pool()[static_cast<size_t>(
            in.ops[1].mem.poolSlot)];
    return entry.lo == std::bit_cast<uint64_t>(1.0);
  });
  EXPECT_NE(seed, instrs.end()) << f.dumpCaptured();
}

TEST(MergeBlocks, CollapsesJmpChains) {
  PassOptions options;
  options.peephole = false;
  options.mergeBlocks = true;

  ir::CapturedFunction fn;
  const int a = fn.newBlock(1, 0);
  const int b = fn.newBlock(2, 0);
  const int c = fn.newBlock(3, 0);
  fn.setEntry(a);
  fn.block(a).instrs = {makeInstr(Mnemonic::Mov, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(1))};
  fn.block(a).term = {ir::Terminator::Kind::Jmp, Cond::O, b, -1};
  fn.block(b).instrs = {makeInstr(Mnemonic::Add, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(2))};
  fn.block(b).term = {ir::Terminator::Kind::Jmp, Cond::O, c, -1};
  fn.block(c).instrs = {makeInstr(Mnemonic::Add, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(4))};
  fn.block(c).term.kind = ir::Terminator::Kind::Ret;

  runPasses(fn, options);
  EXPECT_EQ(fn.block(a).instrs.size(), 3u);
  EXPECT_EQ(fn.block(a).term.kind, ir::Terminator::Kind::Ret);
  // The merged function still emits and runs.
  auto mem = ir::emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->entry<int64_t (*)()>()(), 7);
}

TEST(MergeBlocks, SharedSuccessorNotMerged) {
  PassOptions options;
  options.peephole = false;
  options.mergeBlocks = true;

  // Two predecessors jump to the same block: no merge allowed.
  ir::CapturedFunction fn;
  const int head = fn.newBlock(1, 0);
  const int left = fn.newBlock(2, 0);
  const int join = fn.newBlock(3, 0);
  fn.setEntry(head);
  fn.block(head).instrs = {makeInstr(Mnemonic::Test, 8,
                                     Operand::makeReg(Reg::rdi),
                                     Operand::makeReg(Reg::rdi))};
  fn.block(head).term = {ir::Terminator::Kind::CondJmp, Cond::E, join, left};
  fn.block(left).instrs = {makeInstr(Mnemonic::Add, 8,
                                     Operand::makeReg(Reg::rdi),
                                     Operand::makeImm(1))};
  fn.block(left).term = {ir::Terminator::Kind::Jmp, Cond::O, join, -1};
  fn.block(join).instrs = {makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rdi))};
  fn.block(join).term.kind = ir::Terminator::Kind::Ret;

  runPasses(fn, options);
  EXPECT_FALSE(fn.block(join).instrs.empty());
  auto mem = ir::emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  auto f = mem->entry<int64_t (*)(int64_t)>();
  EXPECT_EQ(f(0), 0);
  EXPECT_EQ(f(5), 6);
}

// --- the register facts and the liveness every pass reads --------------------

Operand xmmOp(int n) { return Operand::makeReg(isa::xmmFromNum(n)); }

Operand memOp(Reg base, int32_t disp = 0) {
  return Operand::makeMem(MemOperand{.base = base, .disp = disp});
}

RegSet xmmBit(int n) { return isa::regBit(isa::xmmFromNum(n)); }

// The SysV argument registers xmm0-7.
constexpr RegSet kXmmArgs = 0x00ff0000u;

TEST(Liveness, CallUsesAndClobbersEveryXmmAndTheFlags) {
  // A callee reads only the XMM argument registers, but may clobber every
  // XMM register.
  const RegFacts f =
      factsOf(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)));
  EXPECT_EQ(f.use & kXmmRegs, kXmmArgs);
  EXPECT_EQ(f.wr & kXmmRegs, kXmmRegs);
  EXPECT_EQ(f.imp & kXmmRegs, kXmmRegs);
  EXPECT_NE(f.use & kFlags, 0u);
  EXPECT_EQ(f.def, 0u);  // the callee may leave any register as it was

  // So xmm0-7 and the flags are live into a block that calls, even when
  // the function returns nothing.
  ir::CapturedFunction fn = singleBlock(
      {makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11))});
  fn.setLiveAtRet(ir::liveAtRetMask(false, false));
  const Liveness live(fn);
  EXPECT_EQ(live.liveIn(0) & (kXmmRegs | kFlags), kXmmArgs | kFlags);
}

TEST(Liveness, CallLeavesXmm8To15Dead) {
  // The block calls, then loads xmm8 and stores it. The callee never
  // reads xmm8, so the value xmm8 holds before the block is dead there: a
  // pass may use xmm8 as a scratch register before the call.
  ir::CapturedFunction fn = singleBlock(
      {makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)),
       makeInstr(Mnemonic::Movsd, 8, xmmOp(8), memOp(Reg::rbx)),
       makeInstr(Mnemonic::Movsd, 8, memOp(Reg::rbx, 8), xmmOp(8))});
  fn.setLiveAtRet(ir::liveAtRetMask(false, false));
  const Liveness live(fn);
  EXPECT_EQ(live.liveIn(0) & xmmBit(8), 0u);
  EXPECT_EQ(live.liveIn(0) & (kXmmRegs & ~kXmmArgs), 0u);
}

TEST(Liveness, PartialWriteIsAUse) {
  for (const Mnemonic m : {Mnemonic::Movsd, Mnemonic::Addsd}) {
    const RegFacts f = factsOf(makeInstr(m, 8, xmmOp(1), xmmOp(2)));
    EXPECT_EQ(f.use & kXmmRegs, xmmBit(1) | xmmBit(2)) << static_cast<int>(m);
    EXPECT_EQ(f.def & xmmBit(1), 0u) << static_cast<int>(m);
  }
  // A load replaces the whole register: a def, not a use.
  const RegFacts load =
      factsOf(makeInstr(Mnemonic::Movsd, 8, xmmOp(1), memOp(Reg::rdi)));
  EXPECT_EQ(load.def & kXmmRegs, xmmBit(1));
  EXPECT_EQ(load.use & kXmmRegs, 0u);

  // movsd xmm1, xmm2 keeps xmm1's high lane: xmm1 is live into the block.
  ir::CapturedFunction fn =
      singleBlock({makeInstr(Mnemonic::Movsd, 8, xmmOp(1), xmmOp(2)),
                   makeInstr(Mnemonic::Movapd, 16, xmmOp(0), xmmOp(1))});
  fn.setLiveAtRet(ir::liveAtRetMask(false, true));
  const Liveness live(fn);
  EXPECT_EQ(live.liveIn(0) & kXmmRegs, xmmBit(1) | xmmBit(2));
}

TEST(Liveness, RetUsesLiveAtRetForEachReturnKind) {
  // Unknown, Int, Float, Void.
  for (const auto& [intReturn, sseReturn] :
       {std::pair{true, true}, std::pair{true, false}, std::pair{false, true},
        std::pair{false, false}}) {
    ir::CapturedFunction fn = singleBlock({});
    fn.setLiveAtRet(ir::liveAtRetMask(intReturn, sseReturn));
    const Liveness live(fn);
    EXPECT_EQ(live.liveIn(0), ir::liveAtRetMask(intReturn, sseReturn))
        << intReturn << sseReturn;
  }
}

TEST(Liveness, SideExitAndStopUseEverything) {
  for (const auto kind :
       {ir::Terminator::Kind::SideExit, ir::Terminator::Kind::Stop,
        ir::Terminator::Kind::None}) {
    ir::CapturedFunction fn = singleBlock({});
    fn.block(0).term.kind = kind;
    const Liveness live(fn);
    EXPECT_EQ(live.liveIn(0), kEverything) << static_cast<int>(kind);
    EXPECT_EQ(live.liveOut(0), kEverything) << static_cast<int>(kind);
  }
}

// b0 -> (b1 | b2); b1 and b2 return nothing.
ir::CapturedFunction diamond(std::vector<isa::Instruction> head) {
  ir::CapturedFunction fn;
  for (int i = 0; i < 3; ++i) fn.newBlock(0x1000 + 0x10 * i, 0);
  fn.block(0).instrs.assign(head.begin(), head.end());
  fn.block(0).term = {.kind = ir::Terminator::Kind::CondJmp,
                      .cond = Cond::NE, .taken = 1, .fall = 2};
  fn.block(1).term.kind = ir::Terminator::Kind::Ret;
  fn.block(2).term.kind = ir::Terminator::Kind::Ret;
  fn.setLiveAtRet(ir::liveAtRetMask(false, false));
  return fn;
}

TEST(Liveness, FlagsLiveIntoCondJmp) {
  ir::CapturedFunction bare = diamond({});
  const Liveness bareLive(bare);
  EXPECT_NE(bareLive.liveOut(0) & kFlags, 0u);
  EXPECT_NE(bareLive.liveIn(0) & kFlags, 0u);
  EXPECT_EQ(bareLive.liveIn(1) & kFlags, 0u);  // dead at a ret

  // A compare defines them: the flags are dead above it, its operand live.
  ir::CapturedFunction compared = diamond({makeInstr(
      Mnemonic::Cmp, 8, Operand::makeReg(Reg::rdx), Operand::makeImm(0))});
  const Liveness live(compared);
  EXPECT_EQ(live.liveIn(0) & kFlags, 0u);
  EXPECT_NE(live.liveIn(0) & isa::regBit(Reg::rdx), 0u);
}

TEST(Liveness, CarriedAroundBackEdge) {
  // b0: xmm3 = [rdi]          -> b1
  // b1: [rsi] = xmm3          -> b2
  // b2: xmm4 = [rdi+8]; jne b1, else b3
  // b3: ret
  // xmm3 passes through b2 untouched and is read again in b1, so it is
  // live into b2 only through the back edge.
  ir::CapturedFunction fn;
  for (int i = 0; i < 4; ++i) fn.newBlock(0x1000 + 0x10 * i, 0);
  fn.block(0).instrs.push_back(
      makeInstr(Mnemonic::Movsd, 8, xmmOp(3), memOp(Reg::rdi)));
  fn.block(0).term = {.kind = ir::Terminator::Kind::Jmp, .taken = 1};
  fn.block(1).instrs.push_back(
      makeInstr(Mnemonic::Movsd, 8, memOp(Reg::rsi), xmmOp(3)));
  fn.block(1).term = {.kind = ir::Terminator::Kind::Jmp, .taken = 2};
  fn.block(2).instrs.push_back(
      makeInstr(Mnemonic::Movsd, 8, xmmOp(4), memOp(Reg::rdi, 8)));
  fn.block(2).term = {.kind = ir::Terminator::Kind::CondJmp,
                      .cond = Cond::NE, .taken = 1, .fall = 3};
  fn.block(3).term.kind = ir::Terminator::Kind::Ret;
  fn.setLiveAtRet(ir::liveAtRetMask(false, false));
  const Liveness live(fn);
  EXPECT_NE(live.liveIn(2) & xmmBit(3), 0u);
  EXPECT_NE(live.liveOut(2) & xmmBit(3), 0u);
  EXPECT_NE(live.liveIn(1) & xmmBit(3), 0u);
  EXPECT_EQ(live.liveIn(0) & xmmBit(3), 0u);  // defined before the loop
  EXPECT_EQ(live.liveIn(2) & xmmBit(4), 0u);
}

}  // namespace
}  // namespace brew
