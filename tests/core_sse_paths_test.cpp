// Targeted tracer tests for SSE paths that the broad fuzzers only brush:
// lane moves (movlpd/movhpd), packed arithmetic, conversions, division and
// the wide integer multiply/divide family in both elide and capture modes.
#include <gtest/gtest.h>

#include <cstring>

#include "core/rewriter.hpp"
#include "jit/assembler.hpp"

namespace brew {
namespace {

using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;
using jit::Assembler;

ExecMemory buildOrDie(Assembler& assembler) {
  auto mem = assembler.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << (mem.ok() ? "" : mem.error().message());
  return std::move(*mem);
}

TEST(SsePaths, PackedArithmeticCaptured) {
  // f(a*, b*) -> sum of both lanes of (A + B) * A, via packed ops.
  Assembler as;
  as.emit(makeInstr(Mnemonic::Movupd, 16, Operand::makeReg(Reg::xmm0),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  as.emit(makeInstr(Mnemonic::Movupd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rsi})));
  as.emit(makeInstr(Mnemonic::Addpd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm0)));
  as.emit(makeInstr(Mnemonic::Mulpd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm0)));
  as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Unpckhpd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using f_t = double (*)(const double*, const double*);
  auto original = fn.entry<f_t>();

  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, nullptr);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  const double a[2] = {1.5, -2.0};
  const double b[2] = {0.25, 4.0};
  EXPECT_EQ(original(a, b), rewritten->as<f_t>()(a, b));
}

TEST(SsePaths, PackedFoldsWithKnownTable) {
  alignas(16) static const double table[2] = {3.0, 5.0};
  Assembler as;
  as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  as.emit(makeInstr(Mnemonic::Mulpd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm1)));  // squares: 9, 25
  as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Unpckhpd, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));  // 9 + 25
  as.ret();
  ExecMemory fn = buildOrDie(as);

  Config config;
  config.setParamKnownPtr(0, sizeof table);
  config.setReturnKind(ReturnKind::Float);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), table);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_DOUBLE_EQ(rewritten->as<double (*)(const double*)>()(nullptr),
                   34.0);
  // Everything folded: just the constant materialization and ret remain.
  EXPECT_LE(rewritten->emitStats().instructions, 3u);
}

TEST(SsePaths, LaneMovesTraced) {
  // Build {lo=a[0], hi=b[0]} via movlpd/movhpd, then store both lanes.
  Assembler as;
  as.emit(makeInstr(Mnemonic::Movlpd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  as.emit(makeInstr(Mnemonic::Movhpd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeMem(MemOperand{.base = Reg::rsi})));
  as.emit(makeInstr(Mnemonic::Movupd, 16,
                    Operand::makeMem(MemOperand{.base = Reg::rdx}),
                    Operand::makeReg(Reg::xmm0)));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using f_t = void (*)(const double*, const double*, double*);

  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, nullptr, nullptr);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  const double a = 1.25, b = -8.5;
  double out[2] = {0, 0};
  rewritten->as<f_t>()(&a, &b, out);
  EXPECT_EQ(out[0], 1.25);
  EXPECT_EQ(out[1], -8.5);
}

TEST(SsePaths, LaneLoadFoldsFromKnownData) {
  static const double known[1] = {7.5};
  Assembler as;
  as.emit(makeInstr(Mnemonic::Movlpd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  Config config;
  config.setParamKnownPtr(0, sizeof known);
  config.setReturnKind(ReturnKind::Float);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), known);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_DOUBLE_EQ(rewritten->as<double (*)(const double*)>()(nullptr), 7.5);
}

TEST(SsePaths, DivisionElisionAndCapture) {
  // rax = rdi / rsi (idiv): known inputs fold, unknown inputs capture.
  Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.emit(makeInstr(Mnemonic::Cdq, 8));  // cqo
  as.emit(makeInstr(Mnemonic::Idiv, 8, Operand::makeReg(Reg::rsi)));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using d_t = int64_t (*)(int64_t, int64_t);

  {
    Config config;
    config.setParamKnown(0);
    config.setParamKnown(1);
    Rewriter rewriter{config};
    auto rewritten = rewriter.rewrite(fn.data(), -100, 7);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
    EXPECT_EQ(rewritten->as<d_t>()(0, 0), -14);
    EXPECT_LE(rewritten->emitStats().instructions, 3u);  // folded
  }
  {
    Rewriter rewriter{Config{}};
    auto rewritten = rewriter.rewrite(fn.data(), 0, 1);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
    auto divide = rewritten->as<d_t>();
    EXPECT_EQ(divide(100, 7), 14);
    EXPECT_EQ(divide(-100, 7), -14);
    EXPECT_EQ(divide(99, -3), -33);
  }
}

TEST(SsePaths, DivideFaultDuringTraceFailsCleanly) {
  Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.emit(makeInstr(Mnemonic::Cdq, 8));
  as.emit(makeInstr(Mnemonic::Idiv, 8, Operand::makeReg(Reg::rsi)));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 5, 0);  // divide by zero
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::UnsupportedInstruction);
}

TEST(SsePaths, WideMultiplyTraced) {
  // (rdi * rsi) high 64 bits via mul.
  Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.emit(makeInstr(Mnemonic::MulWide, 8, Operand::makeReg(Reg::rsi)));
  as.movRegReg(Reg::rax, Reg::rdx);
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using m_t = uint64_t (*)(uint64_t, uint64_t);
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 0);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto mulhi = rewritten->as<m_t>();
  EXPECT_EQ(mulhi(~0ull, ~0ull), 0xFFFFFFFFFFFFFFFEull);
  EXPECT_EQ(mulhi(1ull << 32, 1ull << 32), 1ull);

  Config known;
  known.setParamKnown(0);
  known.setParamKnown(1);
  Rewriter rewriter2{known};
  auto folded = rewriter2.rewrite(fn.data(), ~0ull, ~0ull);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->as<m_t>()(0, 0), 0xFFFFFFFFFFFFFFFEull);
}

TEST(SsePaths, ConversionRoundTrip) {
  // double -> int -> double with truncation.
  Assembler as;
  isa::Instruction toInt = makeInstr(Mnemonic::Cvttsd2si, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::xmm0));
  toInt.srcWidth = 8;
  as.emit(toInt);
  isa::Instruction toFp = makeInstr(Mnemonic::Cvtsi2sd, 8,
                                    Operand::makeReg(Reg::xmm0),
                                    Operand::makeReg(Reg::rax));
  toFp.srcWidth = 8;
  as.emit(toFp);
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using t_t = double (*)(double);

  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 0.0);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto truncate = rewritten->as<t_t>();
  EXPECT_DOUBLE_EQ(truncate(2.9), 2.0);
  EXPECT_DOUBLE_EQ(truncate(-2.9), -2.0);

  Config known;
  known.setParamKnown(0, /*isFloat=*/true);
  known.setReturnKind(ReturnKind::Float);
  Rewriter rewriter2{known};
  const ArgValue args[] = {ArgValue::fromDouble(123.75)};
  auto folded = rewriter2.rewrite(fn.data(), args);
  ASSERT_TRUE(folded.ok());
  EXPECT_DOUBLE_EQ(folded->as<t_t>()(0.0), 123.0);
}

TEST(SsePaths, ScalarSingleKeepsUpperLowLaneBits) {
  // An ss result merged into an XMM register replaces bits 0-31 and keeps
  // bits 32-63: movq xmm0, rdi; pxor xmm1, xmm1; addss xmm0, xmm1;
  // movq rax, xmm0 returns its argument when bits 0-31 hold 1.0f.
  Assembler as;
  as.emit(makeInstr(Mnemonic::Movq, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::rdi)));
  as.emit(makeInstr(Mnemonic::Pxor, 16, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Addss, 4, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Movq, 8, Operand::makeReg(Reg::rax),
                    Operand::makeReg(Reg::xmm0)));
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using f_t = uint64_t (*)(uint64_t);
  constexpr uint64_t kInput = 0x123456783f800000ull;

  EXPECT_EQ(fn.entry<f_t>()(kInput), kInput);

  Config known;
  known.setParamKnown(0);
  Rewriter rewriter{known};
  const ArgValue knownArgs[] = {ArgValue::fromInt(kInput)};
  auto folded = rewriter.rewrite(fn.data(), knownArgs);
  ASSERT_TRUE(folded.ok()) << folded.error().message();
  EXPECT_EQ(folded->as<f_t>()(kInput), kInput);
}

TEST(SsePaths, UcomisdBranchResolvedWhenKnown) {
  // return (a < 2.5) ? 1 : 0 via ucomisd + seta/setb.
  Assembler as;
  static const double threshold[1] = {2.5};
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeMem(MemOperand{.base = Reg::rdi})));
  as.emit(makeInstr(Mnemonic::Ucomisd, 8, Operand::makeReg(Reg::xmm1),
                    Operand::makeReg(Reg::xmm0)));
  as.movRegImm(Reg::rax, 0, 4);
  isa::Instruction seta = makeInstr(Mnemonic::Setcc, 1,
                                    Operand::makeReg(Reg::rax));
  seta.cond = isa::Cond::A;  // threshold > a
  as.emit(seta);
  as.ret();
  ExecMemory fn = buildOrDie(as);
  using c_t = int64_t (*)(const double*, double);

  // Unknown argument: comparison captured, works for both outcomes.
  Config config;
  config.setParamKnownPtr(0, sizeof threshold);
  config.setParamFloat(1);
  Rewriter rewriter{config};
  const ArgValue args[] = {ArgValue::fromPtr(threshold),
                           ArgValue::fromDouble(0.0)};
  auto rewritten = rewriter.rewrite(fn.data(), args);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto test = rewritten->as<c_t>();
  EXPECT_EQ(test(nullptr, 1.0), 1);
  EXPECT_EQ(test(nullptr, 3.0), 0);
  EXPECT_EQ(test(nullptr, 2.5), 0);

  // Known argument: comparison folds away entirely.
  Config allKnown;
  allKnown.setParamKnownPtr(0, sizeof threshold);
  allKnown.setParamKnown(1, /*isFloat=*/true);
  allKnown.setReturnKind(ReturnKind::Int);
  Rewriter rewriter2{allKnown};
  const ArgValue args2[] = {ArgValue::fromPtr(threshold),
                            ArgValue::fromDouble(1.0)};
  auto folded = rewriter2.rewrite(fn.data(), args2);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->as<c_t>()(nullptr, 99.0), 1);
  EXPECT_LE(folded->emitStats().instructions, 2u);
}

}  // namespace
}  // namespace brew
