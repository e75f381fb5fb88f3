// IR emission tests: block layout (fall-through chaining), intra-function
// relocation, literal pool placement and RIP-relative pool references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "ir/captured.hpp"
#include "isa/decoder.hpp"

namespace brew::ir {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

TEST(Layout, FallThroughChainsFollowCondJumps) {
  CapturedFunction fn;
  const int a = fn.newBlock(1, 0);
  const int b = fn.newBlock(2, 0);
  const int c = fn.newBlock(3, 0);
  fn.block(a).term = {Terminator::Kind::CondJmp, Cond::E, c, b};
  fn.block(b).term = {Terminator::Kind::Ret, Cond::O, -1, -1};
  fn.block(c).term = {Terminator::Kind::Ret, Cond::O, -1, -1};
  const std::vector<int> order = layoutOrder(fn);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);  // fall-through side placed next
  EXPECT_EQ(order[2], c);
}

TEST(Layout, JumpTargetChainedWhenFree) {
  CapturedFunction fn;
  const int a = fn.newBlock(1, 0);
  const int b = fn.newBlock(2, 0);
  fn.block(a).term = {Terminator::Kind::Jmp, Cond::O, b, -1};
  fn.block(b).term = {Terminator::Kind::Ret, Cond::O, -1, -1};
  const std::vector<int> order = layoutOrder(fn);
  EXPECT_EQ(order, (std::vector<int>{a, b}));
}

TEST(Emit, BranchRelocationExecutes) {
  // if (rdi == 0) return 1; else return 2;  — three blocks.
  CapturedFunction fn;
  const int head = fn.newBlock(1, 0);
  const int zero = fn.newBlock(2, 0);
  const int nonzero = fn.newBlock(3, 0);
  fn.setEntry(head);
  fn.block(head).instrs = {makeInstr(Mnemonic::Test, 8,
                                     Operand::makeReg(Reg::rdi),
                                     Operand::makeReg(Reg::rdi))};
  fn.block(head).term = {Terminator::Kind::CondJmp, Cond::E, zero, nonzero};
  fn.block(zero).instrs = {makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeImm(1))};
  fn.block(zero).term.kind = Terminator::Kind::Ret;
  fn.block(nonzero).instrs = {makeInstr(Mnemonic::Mov, 8,
                                        Operand::makeReg(Reg::rax),
                                        Operand::makeImm(2))};
  fn.block(nonzero).term.kind = Terminator::Kind::Ret;

  auto mem = emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  auto f = mem->entry<int64_t (*)(int64_t)>();
  EXPECT_EQ(f(0), 1);
  EXPECT_EQ(f(7), 2);
  EXPECT_EQ(f(-7), 2);
}

TEST(Emit, LoopBackedge) {
  // rax = 0; do { rax += rdi; rdi -= 1; } while (rdi != 0); ret
  CapturedFunction fn;
  const int head = fn.newBlock(1, 0);
  const int body = fn.newBlock(2, 0);
  const int exit = fn.newBlock(3, 0);
  fn.setEntry(head);
  fn.block(head).instrs = {makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeImm(0))};
  fn.block(head).term = {Terminator::Kind::Jmp, Cond::O, body, -1};
  fn.block(body).instrs = {
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rdi)),
      makeInstr(Mnemonic::Sub, 8, Operand::makeReg(Reg::rdi),
                Operand::makeImm(1)),
  };
  fn.block(body).term = {Terminator::Kind::CondJmp, Cond::NE, body, exit};
  fn.block(exit).term.kind = Terminator::Kind::Ret;

  auto mem = emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  auto f = mem->entry<int64_t (*)(int64_t)>();
  EXPECT_EQ(f(4), 4 + 3 + 2 + 1);
  EXPECT_EQ(f(1), 1);
}

TEST(Layout, LatchPlacedBeforeLoopHeader) {
  // rax = 0; do { rax += rdi; rdi -= 1; if (rdi == 0) break; rax += 1; }
  // The loop's tail (`rax += 1`) is a latch stub: it ends in `jmp body`
  // and only the body's taken branch reaches it.
  CapturedFunction fn;
  const int head = fn.newBlock(1, 0);
  const int body = fn.newBlock(2, 0);
  const int exit = fn.newBlock(3, 0);
  const int latch = fn.newBlock(4, 0);
  fn.setEntry(head);
  fn.block(head).instrs = {makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeImm(0))};
  fn.block(head).term = {Terminator::Kind::Jmp, Cond::O, body, -1};
  fn.block(body).instrs = {
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rdi)),
      makeInstr(Mnemonic::Sub, 8, Operand::makeReg(Reg::rdi),
                Operand::makeImm(1)),
  };
  fn.block(body).term = {Terminator::Kind::CondJmp, Cond::NE, latch, exit};
  fn.block(exit).term.kind = Terminator::Kind::Ret;
  fn.block(latch).instrs = {makeInstr(Mnemonic::Add, 8,
                                      Operand::makeReg(Reg::rax),
                                      Operand::makeImm(1))};
  fn.block(latch).term = {Terminator::Kind::Jmp, Cond::O, body, -1};

  EXPECT_EQ(layoutOrder(fn), (std::vector<int>{head, latch, body, exit}));

  EmitStats stats;
  auto mem = emit(fn, 1 << 16, &stats);
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  EXPECT_EQ(stats.loopLatches, 1u);
  auto f = mem->entry<int64_t (*)(int64_t)>();
  EXPECT_EQ(f(4), 4 + 3 + 2 + 1 + 3);
  EXPECT_EQ(f(1), 1);

  // Decode the emitted code: the backward branch closes the loop, and the
  // range it jumps back over holds no other branch, so one iteration takes
  // exactly one jump.
  struct Branch {
    uint64_t at, target;
  };
  std::vector<Branch> branches;
  const auto* base = static_cast<const uint8_t*>(mem->data());
  const uint64_t start = reinterpret_cast<uint64_t>(base);
  for (size_t off = 0; off < stats.codeBytes;) {
    auto in = isa::decodeOne(
        std::span<const uint8_t>(base + off, stats.codeBytes - off),
        start + off);
    ASSERT_TRUE(in.ok()) << "offset " << off;
    if (in->mnemonic == Mnemonic::Jmp || in->mnemonic == Mnemonic::Jcc)
      branches.push_back(
          {start + off, static_cast<uint64_t>(in->ops[0].imm)});
    if (in->mnemonic == Mnemonic::Ret) break;
    off += in->length;
  }
  const auto back = std::ranges::find_if(
      branches, [](const Branch& b) { return b.target <= b.at; });
  ASSERT_NE(back, branches.end());
  const auto inLoop = std::ranges::count_if(branches, [&](const Branch& b) {
    return b.at >= back->target && b.at <= back->at;
  });
  EXPECT_EQ(inLoop, 1);
}

TEST(Emit, PoolReferencesResolve) {
  CapturedFunction fn;
  const int id = fn.newBlock(1, 0);
  fn.setEntry(id);
  double v = 2.75;
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  const int slot0 = fn.addPoolConstant(bits);
  v = -1.5;
  std::memcpy(&bits, &v, 8);
  const int slot1 = fn.addPoolConstant(bits);
  MemOperand p0;
  p0.ripRelative = true;
  p0.poolSlot = slot0;
  MemOperand p1;
  p1.ripRelative = true;
  p1.poolSlot = slot1;
  fn.block(id).instrs = {
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(p0)),
      makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(p1)),
  };
  fn.block(id).term.kind = Terminator::Kind::Ret;

  auto mem = emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  auto f = mem->entry<double (*)()>();
  EXPECT_DOUBLE_EQ(f(), 1.25);
}

TEST(Emit, PoolDeduplicates) {
  CapturedFunction fn;
  EXPECT_EQ(fn.addPoolConstant(42), 0);
  EXPECT_EQ(fn.addPoolConstant(43), 1);
  EXPECT_EQ(fn.addPoolConstant(42), 0);
  EXPECT_EQ(fn.addPoolConstant(42, 1), 2);  // different high half
}

TEST(Emit, CodeBudgetEnforced) {
  CapturedFunction fn;
  const int id = fn.newBlock(1, 0);
  fn.setEntry(id);
  for (int i = 0; i < 100; ++i)
    fn.block(id).instrs.push_back(
        makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rax),
                  Operand::makeImm(0x123456789ALL)));
  fn.block(id).term.kind = Terminator::Kind::Ret;
  auto mem = emit(fn, 64);
  ASSERT_FALSE(mem.ok());
  EXPECT_EQ(mem.error().code, ErrorCode::CodeBufferFull);
}

TEST(Emit, MissingTerminatorRejected) {
  CapturedFunction fn;
  fn.newBlock(1, 0);
  auto mem = emit(fn, 1 << 16);
  ASSERT_FALSE(mem.ok());
  EXPECT_EQ(mem.error().code, ErrorCode::InvalidArgument);
}

TEST(Emit, EmptyFunctionRejected) {
  CapturedFunction fn;
  auto mem = emit(fn, 1 << 16);
  ASSERT_FALSE(mem.ok());
}

TEST(Emit, InterpreterRunsEmittedCode) {
  // The emitted buffer runs natively: lea with base, scaled index and
  // displacement.
  CapturedFunction fn;
  const int id = fn.newBlock(1, 0);
  fn.setEntry(id);
  fn.block(id).instrs = {
      makeInstr(Mnemonic::Lea, 8, Operand::makeReg(Reg::rax),
                Operand::makeMem(MemOperand{.base = Reg::rdi,
                                            .index = Reg::rsi,
                                            .scale = 2,
                                            .disp = 5})),
  };
  fn.block(id).term.kind = Terminator::Kind::Ret;
  auto mem = emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  auto f = mem->entry<uint64_t (*)(uint64_t, uint64_t)>();
  EXPECT_EQ(f(10, 4), 10 + 8 + 5u);
}

}  // namespace
}  // namespace brew::ir
