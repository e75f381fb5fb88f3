// Differential tests for cross-iteration redundant-load elimination, its
// scratch registers and the XMM register rules (copy coalescing, entry
// hoisting) (§IV). The contract under test is strict: the optimized
// capture must produce byte-identical results to the capture with every
// pass off — FP addition is never reassociated — over f64 and f32
// accumulation chains, scalar store sequences and traced loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/code_cache.hpp"
#include "core/rewriter.hpp"
#include "ir/captured.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

uint64_t f64bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

uint32_t f32bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  return bits;
}

Operand xmm(int n) { return Operand::makeReg(isa::xmmFromNum(n)); }

Operand poolRef(int slot) {
  MemOperand m;
  m.ripRelative = true;
  m.poolSlot = slot;
  return Operand::makeMem(m);
}

Operand memAt(int32_t disp) {
  return Operand::makeMem(MemOperand{.base = Reg::rdi, .disp = disp});
}

// Every pass off: the capture as the tracer left it.
PassOptions allOff() {
  PassOptions options;
  options.peephole = false;
  options.mergeBlocks = false;
  options.crossIterLoads = false;
  return options;
}

// Builds the post-unroll shape the tracer captures for an N-point f64
// stencil: per point `movsd xmm0, [rdi+disp]; mulsd xmm0, [pool coeff]`,
// accumulated left-to-right into xmm1, result returned in xmm0.
ir::CapturedFunction buildF64Chain(
    const std::vector<std::pair<int32_t, double>>& points) {
  ir::CapturedFunction fn;
  const int id = fn.newBlock(0x1000, 0);
  auto& ins = fn.block(id).instrs;
  bool first = true;
  for (const auto& [disp, coeff] : points) {
    const int slot = fn.addPoolConstant(f64bits(coeff));
    ins.push_back(makeInstr(Mnemonic::Movsd, 8, xmm(0), memAt(disp)));
    ins.push_back(makeInstr(Mnemonic::Mulsd, 8, xmm(0), poolRef(slot)));
    if (first)
      ins.push_back(makeInstr(Mnemonic::Movapd, 16, xmm(1), xmm(0)));
    else
      ins.push_back(makeInstr(Mnemonic::Addsd, 8, xmm(1), xmm(0)));
    first = false;
  }
  ins.push_back(makeInstr(Mnemonic::Movapd, 16, xmm(0), xmm(1)));
  fn.block(id).term.kind = ir::Terminator::Kind::Ret;
  return fn;
}

// The paper's 5-point stencil (the A4 kernel): adjacent, distant and
// shared-coefficient points. xmm0 is the chain temporary and xmm1 the
// accumulator.
ir::CapturedFunction buildA4Shape() {
  return buildF64Chain(
      {{0, -1.0}, {-8, 0.25}, {8, 0.25}, {-4000, 0.25}, {4000, 0.25}});
}

// Same shape in f32: seed the accumulator with a plain load, then
// mul-accumulate one chain per point.
ir::CapturedFunction buildF32Chain(
    int32_t seedDisp, const std::vector<std::pair<int32_t, float>>& points) {
  ir::CapturedFunction fn;
  const int id = fn.newBlock(0x1000, 0);
  auto& ins = fn.block(id).instrs;
  ins.push_back(makeInstr(Mnemonic::Movss, 4, xmm(1), memAt(seedDisp)));
  for (const auto& [disp, coeff] : points) {
    const int slot = fn.addPoolConstant(f32bits(coeff));
    ins.push_back(makeInstr(Mnemonic::Movss, 4, xmm(0), memAt(disp)));
    ins.push_back(makeInstr(Mnemonic::Mulss, 4, xmm(0), poolRef(slot)));
    ins.push_back(makeInstr(Mnemonic::Addss, 4, xmm(1), xmm(0)));
  }
  ins.push_back(makeInstr(Mnemonic::Movaps, 16, xmm(0), xmm(1)));
  fn.block(id).term.kind = ir::Terminator::Kind::Ret;
  return fn;
}

// Two scalar loads stored back 256 bytes higher, `gap` bytes apart; the
// first loaded value is returned.
ir::CapturedFunction buildStorePair(int32_t gap) {
  ir::CapturedFunction fn;
  const int id = fn.newBlock(0x1000, 0);
  auto& ins = fn.block(id).instrs;
  ins.push_back(makeInstr(Mnemonic::Movsd, 8, xmm(1), memAt(0)));
  ins.push_back(makeInstr(Mnemonic::Movsd, 8, xmm(2), memAt(8)));
  ins.push_back(makeInstr(Mnemonic::Movsd, 8, memAt(256), xmm(1)));
  ins.push_back(makeInstr(Mnemonic::Movsd, 8, memAt(256 + gap), xmm(2)));
  ins.push_back(makeInstr(Mnemonic::Movapd, 16, xmm(0), xmm(1)));
  fn.block(id).term.kind = ir::Terminator::Kind::Ret;
  return fn;
}

template <typename T>
auto valueBits(T v) {
  std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t> bits;
  std::memcpy(&bits, &v, sizeof v);
  return bits;
}

// Runs `build()` twice — every pass off vs the full pipeline — executes
// both over the same randomized buffer of T and requires bitwise-equal
// results: the returned T (the low lane of xmm0) and the whole buffer.
template <typename T = double, typename BuildFn>
void expectDifferentialEqual(BuildFn build, uint64_t seed) {
  ir::CapturedFunction scalar = build();
  runPasses(scalar, allOff());
  ir::CapturedFunction optimized = build();
  runPasses(optimized, PassOptions{});

  auto memScalar = ir::emit(scalar, 1 << 16);
  auto memOptimized = ir::emit(optimized, 1 << 16);
  ASSERT_TRUE(memScalar.ok());
  ASSERT_TRUE(memOptimized.ok());

  Prng rng(seed);
  std::vector<T> bufA(1024), bufB(1024);
  for (size_t i = 0; i < bufA.size(); ++i) {
    // Mixed magnitudes so reassociation would actually change bits.
    const double v = (rng.uniform() - 0.5) *
                     (i % 7 == 0 ? 1e9 : i % 3 == 0 ? 1e-6 : 1.0);
    bufA[i] = static_cast<T>(v);
    bufB[i] = static_cast<T>(v);
  }
  // rdi points mid-buffer so negative displacements stay in bounds.
  using Fn = T (*)(T*);
  const T a = memScalar->template entry<Fn>()(bufA.data() + 512);
  const T b = memOptimized->template entry<Fn>()(bufB.data() + 512);
  EXPECT_EQ(valueBits(a), valueBits(b))
      << "scalar " << a << " vs optimized " << b << "\nscalar:\n"
      << scalar.dump() << "\noptimized:\n" << optimized.dump();
  EXPECT_EQ(std::memcmp(bufA.data(), bufB.data(), bufA.size() * sizeof(T)),
            0)
      << "stored bytes diverge";
}

// The next six shapes once exercised SLP packing and its bail-outs; they
// keep their names and now check that the full pipeline leaves each one
// bit-exact against the all-passes-off capture.
TEST(Vectorize, PairsAdjacentF64Loads) {
  // The 5-point stencil shape: two adjacent pairs + one leftover.
  expectDifferentialEqual(buildA4Shape, 42);
}

TEST(Vectorize, PacksF32QuadWhenContiguous) {
  expectDifferentialEqual<float>([] {
    return buildF32Chain(64, {{0, 0.5f}, {4, 0.25f}, {8, 0.125f}, {12, 2.0f}});
  }, 7);
}

TEST(Vectorize, BailsOutOnNonContiguousF32Quad) {
  // {0,4,12,16} has a lane gap.
  expectDifferentialEqual<float>([] {
    return buildF32Chain(64,
                         {{0, 0.5f}, {4, 0.25f}, {12, 0.125f}, {16, 2.0f}});
  }, 8);
}

TEST(Vectorize, BailsOutOnOutOfOrderF32Lanes) {
  // Contiguous addresses consumed out of order: the add order must survive.
  expectDifferentialEqual<float>([] {
    return buildF32Chain(64, {{4, 0.5f}, {0, 0.25f}, {8, 0.125f}, {12, 2.0f}});
  }, 9);
}

TEST(Vectorize, PacksAdjacentStores) {
  expectDifferentialEqual([] { return buildStorePair(8); }, 11);
}

TEST(Vectorize, BailsOutOnOverlappingStores) {
  // Stores 4 bytes apart overlap: their order decides the final memory
  // image.
  expectDifferentialEqual([] { return buildStorePair(4); }, 13);
}

TEST(Vectorize, CrossIterPoolHoistKeepsResult) {
  // One coefficient shared by four points: cross-iteration elimination
  // hoists it into a register; the sum must not move by a bit.
  auto build = [] {
    return buildF64Chain({{0, -1.0},
                          {-8, 0.25},
                          {8, 0.25},
                          {16, 0.25},
                          {24, 0.25},
                          {4000, 0.125}});
  };
  ir::CapturedFunction scalar = build();
  runPasses(scalar, allOff());
  ir::CapturedFunction optimized = build();
  runPasses(optimized, PassOptions{});
  // Fewer pool-memory references after hoisting.
  auto poolRefs = [](const ir::CapturedFunction& fn) {
    size_t n = 0;
    for (int b = 0; b < fn.blockCount(); ++b)
      for (const isa::Instruction& in : fn.block(b).instrs)
        for (unsigned o = 0; o < in.nops; ++o)
          if (in.ops[o].isMem() && in.ops[o].mem.poolSlot >= 0) ++n;
    return n;
  };
  EXPECT_LT(poolRefs(optimized), poolRefs(scalar)) << optimized.dump();
  expectDifferentialEqual(build, 17);
}

TEST(Vectorize, RandomizedStencilsStayBitExact) {
  // Randomized stencil shapes: random point counts, displacements
  // (including adjacent, strided and duplicate-coefficient mixes) and
  // magnitudes. Every shape must come out bit-exact.
  Prng rng(0xb3e30u);
  for (int round = 0; round < 40; ++round) {
    const int points = 2 + static_cast<int>(rng.below(5));
    std::vector<std::pair<int32_t, double>> spec;
    std::vector<int32_t> used;
    for (int p = 0; p < points; ++p) {
      int32_t disp;
      bool fresh = true;
      do {
        disp = static_cast<int32_t>(rng.range(-24, 24)) * 8;
        fresh = true;
        for (int32_t u : used) fresh = fresh && u != disp;
      } while (!fresh);
      used.push_back(disp);
      const double coeff = rng.chance(0.4)
                               ? 0.25
                               : (rng.uniform() - 0.5) * 3.0;
      spec.emplace_back(disp, coeff);
    }
    expectDifferentialEqual([&spec] { return buildF64Chain(spec); },
                            1000 + static_cast<uint64_t>(round));
  }
}

bool endsWithReturnCopy(const ir::CapturedFunction& fn) {
  const auto& ins = fn.block(fn.entry()).instrs;
  if (ins.empty()) return false;
  const isa::Instruction& last = ins.back();
  return (last.mnemonic == Mnemonic::Movapd ||
          last.mnemonic == Mnemonic::Movaps) &&
         last.ops[0].isReg() && last.ops[0].reg == Reg::xmm0;
}

// Renaming xmm1 to xmm0 alone would clobber the chain temporary, so copy
// coalescing swaps the two names and drops the copy.
TEST(Peephole, ReturnCopyCoalescesBySwap) {
  ir::CapturedFunction fn = buildA4Shape();
  runPasses(fn, PassOptions{});
  EXPECT_FALSE(endsWithReturnCopy(fn)) << fn.dump();
  expectDifferentialEqual(buildA4Shape, 23);

  // A call between the definitions and the copy may use any XMM register
  // implicitly, so the copy stays.
  ir::CapturedFunction withCall = buildA4Shape();
  auto& ins = withCall.block(withCall.entry()).instrs;
  ins.insert(ins.begin() + 3,
             makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)));
  runPasses(withCall, PassOptions{});
  EXPECT_TRUE(endsWithReturnCopy(withCall)) << withCall.dump();

  // xmm0 read before it is written is live-in (the first float argument):
  // swapping would feed the accumulator's register to the add instead.
  ir::CapturedFunction liveIn;
  const int id = liveIn.newBlock(0x1000, 0);
  auto& body = liveIn.block(id).instrs;
  body.push_back(makeInstr(Mnemonic::Movsd, 8, xmm(1), memAt(0)));
  body.push_back(makeInstr(Mnemonic::Addsd, 8, xmm(1), xmm(0)));
  body.push_back(makeInstr(Mnemonic::Movapd, 16, xmm(0), xmm(1)));
  liveIn.block(id).term.kind = ir::Terminator::Kind::Ret;
  runPasses(liveIn, PassOptions{});
  EXPECT_TRUE(endsWithReturnCopy(liveIn)) << liveIn.dump();
}

// --- register rules of loop functions ---------------------------------------
//
// Subjects are built with jit::Assembler and keep their loop when traced
// (the trip count is unknown):
//
//   double f(const double* src, double* dst, long n, const double* k,
//            void (*clobber)(), double a, double b, double c)
//
// k is a known pointer to kCoeffs, so `[k]` operands fold into the literal
// pool. Each subject is rewritten with every pass off and with the default
// pipeline; both run over the same inputs and must agree bit for bit on
// every stored double (and on the returned one for a float return).

using loop_fn = double (*)(const double*, double*, long, const double*,
                           void (*)(), double, double, double);

constexpr double kCoeffs[2] = {0.25, 0.5};
constexpr long kTrips = 37;

MemOperand at(Reg base, int32_t disp) {
  return MemOperand{.base = base, .disp = disp};
}

void emitLoopTail(jit::Assembler& as, jit::Label loop) {
  as.aluRegImm(Mnemonic::Add, Reg::rdi, 8);
  as.aluRegImm(Mnemonic::Add, Reg::rsi, 8);
  as.aluRegImm(Mnemonic::Sub, Reg::rdx, 1);
  as.jcc(isa::Cond::NE, loop);
}

ExecMemory finalize(jit::Assembler& as) {
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << mem.error().message();
  return std::move(*mem);
}

// Zeroes xmm2: the `clobber` callee, as any ABI-conforming call may.
ExecMemory buildClobber() {
  jit::Assembler as;
  as.emit(makeInstr(Mnemonic::Pxor, 16, xmm(2), xmm(2)));
  as.ret();
  return finalize(as);
}

struct LoopRewrite {
  RewrittenFunction off, on;
};

LoopRewrite expectLoopBitExact(const ExecMemory& subject, ReturnKind kind) {
  Config config;
  config.setReturnKind(kind);
  config.setParamKnownPtr(3, sizeof kCoeffs);
  const ArgValue args[] = {
      ArgValue::fromPtr(nullptr), ArgValue::fromPtr(nullptr),
      ArgValue::fromInt(0), ArgValue::fromPtr(kCoeffs),
      ArgValue::fromPtr(nullptr)};
  Rewriter plain{config};
  plain.passes() = allOff();
  Rewriter optimized{config};
  auto off = plain.rewrite(subject.data(), args);
  auto on = optimized.rewrite(subject.data(), args);
  EXPECT_TRUE(off.ok()) << off.error().message();
  EXPECT_TRUE(on.ok()) << on.error().message();
  if (!off.ok() || !on.ok()) return {};

  static const ExecMemory clobber = buildClobber();
  const auto clobberFn = clobber.entry<void (*)()>();
  Prng rng(kind == ReturnKind::Void ? 5 : 6);
  std::vector<double> src(kTrips + 8);
  for (size_t i = 0; i < src.size(); ++i)
    src[i] = i % 3 == 0 ? 0.0 : (rng.uniform() - 0.5) * 1e3;
  std::vector<double> dstOff(kTrips + 2, -1.0), dstOn(kTrips + 2, -1.0);
  const double a = 1.5, b = -2.75, c = 3.125;
  const double retOff = off->as<loop_fn>()(src.data(), dstOff.data() + 1,
                                           kTrips, kCoeffs, clobberFn, a, b,
                                           c);
  const double retOn = on->as<loop_fn>()(src.data(), dstOn.data() + 1,
                                         kTrips, kCoeffs, clobberFn, a, b, c);
  if (kind == ReturnKind::Float) {
    EXPECT_EQ(std::bit_cast<uint64_t>(retOff), std::bit_cast<uint64_t>(retOn))
        << on->dumpCaptured();
  }
  EXPECT_EQ(std::memcmp(dstOff.data(), dstOn.data(),
                        dstOff.size() * sizeof(double)),
            0)
      << "stored doubles diverge\npasses off:\n"
      << off->dumpCaptured() << "\ndefault passes:\n" << on->dumpCaptured();
  return {std::move(*off), std::move(*on)};
}

size_t countCopies(const RewrittenFunction& f) {
  size_t n = 0;
  for (const ir::Block& block : f.handle()->captured.blocks())
    for (const isa::Instruction& in : block.instrs)
      n += in.mnemonic == Mnemonic::Movapd && in.ops[0].isReg() &&
           in.ops[1].isReg();
  return n;
}

// acc += src[i]; dst[i] = acc, with the store going through a copy into
// xmm0; the function returns acc's last copy in xmm0.
ExecMemory buildRunningSum() {
  jit::Assembler as;
  jit::Label loop = as.newLabel();
  as.emit(makeInstr(Mnemonic::Pxor, 16, xmm(1), xmm(1)));
  as.bind(loop);
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(1),
                    Operand::makeMem(at(Reg::rdi, 0))));
  as.emit(makeInstr(Mnemonic::Movapd, 16, xmm(0), xmm(1)));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  emitLoopTail(as, loop);
  as.ret();
  return finalize(as);
}

TEST(LoopCoalesce, ForwardPropagatesIntoStoreForVoidReturn) {
  // Nothing reads xmm0 after the store: the store reads xmm1 and the copy
  // goes, in the first iteration's block and in the loop.
  const ExecMemory subject = buildRunningSum();
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_EQ(countCopies(r.off), 2u) << r.off.dumpCaptured();
  EXPECT_EQ(countCopies(r.on), 0u) << r.on.dumpCaptured();
}

TEST(LoopCoalesce, CopyReachingFloatReturnStays) {
  // xmm0 is live at the ret, and xmm1 is carried around the loop: neither
  // form applies.
  const ExecMemory subject = buildRunningSum();
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Float);
  ASSERT_TRUE(r.on);
  EXPECT_EQ(countCopies(r.on), 2u) << r.on.dumpCaptured();
}

TEST(LoopCoalesce, BackwardSwapAcrossBlockBoundary) {
  // The stencil sweep's loop shape, rotated: a latch seeds each cell's
  // accumulator through a copy (acc = src[0] * src[1]), then falls into the
  // loop header, which adds src[2] and stores. The copy's source dies in
  // the header, which overwrites xmm0 first: the product is computed in
  // xmm1 and the copy goes, in the latch and in the entry block.
  jit::Assembler as;
  jit::Label top = as.newLabel(), body = as.newLabel();
  auto seed = [&] {
    as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                      Operand::makeMem(at(Reg::rdi, 0))));
    as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(0),
                      Operand::makeMem(at(Reg::rdi, 8))));
    as.emit(makeInstr(Mnemonic::Movapd, 16, xmm(1), xmm(0)));
  };
  seed();
  as.aluRegImm(Mnemonic::Cmp, Reg::rdx, 0);
  as.jcc(isa::Cond::NE, body);
  as.ret();
  as.bind(top);
  seed();
  as.bind(body);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 16))));
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(1), xmm(0)));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(1)));
  emitLoopTail(as, top);
  as.ret();
  const ExecMemory subject = finalize(as);
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_EQ(countCopies(r.off), 2u) << r.off.dumpCaptured();
  EXPECT_EQ(countCopies(r.on), 0u) << r.on.dumpCaptured();
  // The latch is laid out right before the header it falls into.
  EXPECT_EQ(r.on.emitStats().loopLatches, 1u) << r.on.dumpCaptured();
}

// The hoisting subject: every block of the loop multiplies by k[0] twice
// and uses xmm0 and xmm1, so the cross-iteration pass loads k[0] into the
// scratch register xmm2 in each block (a block with a call has no scratch
// register and keeps its pool operands). One switch per negative case
// breaks one hoisting condition.
struct HoistShape {
  bool call = false;      // the branch arm loads k[0] into xmm2 and calls
                          // `clobber` (zeroes xmm2)
  bool liveIn = false;    // the float parameter c (xmm2) is stored first
  bool partial = false;   // the join block computes xmm2 = k[0] * acc
  bool twoSlots = false;  // the branch arm multiplies by k[1] instead
};

ExecMemory buildHoistSubject(HoistShape shape) {
  jit::Assembler as;
  jit::Label loop = as.newLabel(), skip = as.newLabel();
  auto scaleTwice = [&](int reg, int32_t coeff) {
    for (int i = 0; i < 2; ++i)
      as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(reg),
                        Operand::makeMem(at(Reg::rbx, coeff))));
  };
  // rbx (callee-saved) carries k across the call.
  as.emit(makeInstr(Mnemonic::Push, 8, Operand::makeReg(Reg::rbx)));
  as.movRegReg(Reg::rbx, Reg::rcx);
  if (shape.liveIn)
    as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, -8)),
                      xmm(2)));
  as.bind(loop);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 0))));
  scaleTwice(0, 0);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(1),
                    Operand::makeMem(at(Reg::rdi, 8))));
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(0), xmm(1)));
  as.emit(makeInstr(Mnemonic::Cmp, 8, Operand::makeMem(at(Reg::rdi, 16)),
                    Operand::makeImm(0)));
  as.jcc(isa::Cond::E, skip);
  if (shape.call) {
    // The call may read xmm2 (its third float argument), so xmm2 must
    // hold k[0] there too: that keeps it dead across the other blocks.
    as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(2),
                      Operand::makeMem(at(Reg::rbx, 0))));
    as.emit(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r8)));
  }
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(1),
                    Operand::makeMem(at(Reg::rdi, 24))));
  scaleTwice(1, shape.twoSlots ? 8 : 0);
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(0), xmm(1)));
  as.bind(skip);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(1),
                    Operand::makeMem(at(Reg::rdi, 32))));
  scaleTwice(1, 0);
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(0), xmm(1)));
  if (shape.partial) {
    as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(2),
                      Operand::makeMem(at(Reg::rbx, 0))));
    as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(2), xmm(0)));
    as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(0), xmm(2)));
  }
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  emitLoopTail(as, loop);
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rbx)));
  as.ret();
  return finalize(as);
}

// Loads of a pool constant into xmm2, and whether the first instruction of
// the entry block is one.
struct PoolLoads {
  size_t count = 0;
  bool atEntry = false;
};

PoolLoads xmm2PoolLoads(const RewrittenFunction& f) {
  const ir::CapturedFunction& fn = f.handle()->captured;
  auto isLoad = [](const isa::Instruction& in) {
    return in.nops == 2 && in.ops[0].isReg() && in.ops[0].reg == Reg::xmm2 &&
           in.ops[1].isMem() && in.ops[1].mem.poolSlot >= 0;
  };
  PoolLoads out;
  for (const ir::Block& block : fn.blocks())
    out.count += static_cast<size_t>(std::ranges::count_if(block.instrs,
                                                           isLoad));
  const ir::InstrVec& entry = fn.block(fn.entry()).instrs;
  out.atEntry = !entry.empty() && isLoad(entry.front());
  return out;
}

TEST(LoopHoist, PoolConstantLoadedOnceAtEntry) {
  const ExecMemory subject = buildHoistSubject({});
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  const PoolLoads loads = xmm2PoolLoads(r.on);
  EXPECT_EQ(loads.count, 1u) << r.on.dumpCaptured();
  EXPECT_TRUE(loads.atEntry) << r.on.dumpCaptured();
}

TEST(LoopHoist, KeptCallBlocksHoisting) {
  // The call may clobber xmm2 (here it does) between two iterations.
  const ExecMemory subject = buildHoistSubject({.call = true});
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_GE(xmm2PoolLoads(r.on).count, 2u) << r.on.dumpCaptured();
}

TEST(LoopHoist, LiveInRegisterNotHoisted) {
  // xmm2 holds the float parameter c on entry; a load at entry would store
  // the constant in its place.
  const ExecMemory subject = buildHoistSubject({.liveIn = true});
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_GE(xmm2PoolLoads(r.on).count, 2u) << r.on.dumpCaptured();
  EXPECT_FALSE(xmm2PoolLoads(r.on).atEntry) << r.on.dumpCaptured();
}

TEST(LoopHoist, PartialWriteBlocksHoisting) {
  // `mulsd xmm2, xmm0` leaves a product in xmm2 that the next iteration
  // must not read as the constant.
  const ExecMemory subject = buildHoistSubject({.partial = true});
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_GE(xmm2PoolLoads(r.on).count, 2u) << r.on.dumpCaptured();
}

TEST(LoopHoist, TwoPoolSlotsBlockHoisting) {
  // xmm2 holds k[0] in some blocks and k[1] in others.
  const ExecMemory subject = buildHoistSubject({.twoSlots = true});
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_GE(xmm2PoolLoads(r.on).count, 2u) << r.on.dumpCaptured();
}

// --- scratch registers of the cross-iteration hoist --------------------------
//
// xmm0 = src[0] * k[0] * k[0]; dst[0] = xmm0; if (n) dst[1] = 0; return b.
// The entry block multiplies by k[0] twice, so its pool constant is hoisted
// into a scratch register; xmm1 (the argument b) is never referenced there
// but is read after the branch, so it must not be that register.
ExecMemory buildScratchSubject() {
  jit::Assembler as;
  jit::Label skip = as.newLabel();
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 0))));
  for (int i = 0; i < 2; ++i)
    as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(0),
                      Operand::makeMem(at(Reg::rcx, 0))));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  as.aluRegImm(Mnemonic::Cmp, Reg::rdx, 0);
  as.jcc(isa::Cond::E, skip);
  as.emit(makeInstr(Mnemonic::Mov, 8, Operand::makeMem(at(Reg::rsi, 8)),
                    Operand::makeImm(0)));
  as.bind(skip);
  as.emit(makeInstr(Mnemonic::Movapd, 16, xmm(0), xmm(1)));
  as.ret();
  return finalize(as);
}

// Rewrites the subject with the default passes and returns what it returns
// for b = 7.5, after checking the stores against the original.
double runScratchSubject(Config config, bool* hoisted = nullptr) {
  config.setReturnKind(ReturnKind::Float);
  config.setParamKnownPtr(3, sizeof kCoeffs);
  const ExecMemory subject = buildScratchSubject();
  const ArgValue args[] = {
      ArgValue::fromPtr(nullptr), ArgValue::fromPtr(nullptr),
      ArgValue::fromInt(0), ArgValue::fromPtr(kCoeffs),
      ArgValue::fromPtr(nullptr)};
  Rewriter rewriter{config};
  auto f = rewriter.rewrite(subject.data(), args);
  EXPECT_TRUE(f.ok()) << f.error().message();
  if (!f.ok()) return 0.0;
  // Did the hoist happen: is some register loaded from the pool?
  for (const ir::Block& block : f->handle()->captured.blocks())
    for (const isa::Instruction& in : block.instrs)
      if (hoisted != nullptr && in.mnemonic != Mnemonic::Mulsd &&
          in.nops == 2 && in.ops[1].isMem() && in.ops[1].mem.poolSlot >= 0)
        *hoisted = true;
  const double src[1] = {2.0};
  double want[2] = {-1.0, -1.0}, got[2] = {-1.0, -1.0};
  const double wantRet = subject.entry<loop_fn>()(src, want, 1, kCoeffs,
                                                  nullptr, 1.5, 7.5, 3.125);
  const double ret =
      f->as<loop_fn>()(src, got, 1, kCoeffs, nullptr, 1.5, 7.5, 3.125);
  EXPECT_EQ(std::bit_cast<uint64_t>(wantRet), std::bit_cast<uint64_t>(7.5));
  EXPECT_EQ(std::memcmp(want, got, sizeof want), 0) << f->dumpCaptured();
  return ret;
}

TEST(CrossIterScratch, ArgumentReadAfterBranchSurvives) {
  bool hoisted = false;
  EXPECT_EQ(runScratchSubject(Config{}, &hoisted), 7.5);
  EXPECT_TRUE(hoisted);
}

TEST(CrossIterScratch, RegisterReadAfterSideExitSurvives) {
  // At fork depth 0 the branch becomes a side exit: the entry block ends
  // by jumping back into the original code, which returns xmm1.
  Config config;
  config.limits().maxForkDepth = 0;
  EXPECT_EQ(runScratchSubject(config), 7.5);
}

// --- two iterations per trip: kept loops in packed lanes --------------------
//
// runLoopVectorize packs iterations i and i+1 of an eligible kept loop into
// the two lanes of SSE2 packed-double instructions. Each lane keeps its own
// iteration's operation order, so every stored bit must match the scalar
// loop; loops outside the accepted shape keep their scalar code and leave
// passes.loops_vectorized where it was. The whole-sweep oracle, which
// traces compiled C, is in stencil_rewrite_test.cpp.

uint64_t loopsVectorized() {
  return telemetry::counter(telemetry::CounterId::PassLoopsVectorized).value();
}

// dst[i] = src[i] * k[0] + src[i+1], a counted loop with a data operand in
// the arithmetic.
ExecMemory buildScaleAdd() {
  jit::Assembler as;
  jit::Label loop = as.newLabel();
  as.bind(loop);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 0))));
  as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rcx, 0))));
  as.emit(makeInstr(Mnemonic::Addsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 8))));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  emitLoopTail(as, loop);
  as.ret();
  return finalize(as);
}

TEST(LoopVectorize, CountedLoopPacksAndStaysBitExact) {
  const ExecMemory subject = buildScaleAdd();
  const uint64_t before = loopsVectorized();
  const LoopRewrite r = expectLoopBitExact(subject, ReturnKind::Void);
  ASSERT_TRUE(r.on);
  EXPECT_EQ(loopsVectorized() - before, 1u) << r.on.dumpCaptured();
  // Every trip count, against the subject itself, over signed zeros,
  // infinities, NaNs and denormals.
  std::vector<double> src(24);
  for (size_t i = 0; i < src.size(); ++i)
    src[i] = i % 4 == 0 ? std::bit_cast<double>(uint64_t{0x8000000000000000})
             : i % 4 == 1
                 ? std::bit_cast<double>(uint64_t{0x7ff0000000000001} + i)
             : i % 4 == 2 ? std::bit_cast<double>(uint64_t{i})
                          : 1.0 / static_cast<double>(i);
  for (long n = 1; n <= 20; ++n) {
    std::vector<double> want(24, -1.0), got(24, -1.0);
    subject.entry<loop_fn>()(src.data(), want.data(), n, kCoeffs, nullptr,
                             0, 0, 0);
    r.on.as<loop_fn>()(src.data(), got.data(), n, kCoeffs, nullptr, 0, 0, 0);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), 24 * sizeof(double)), 0)
        << n;
  }
}

TEST(LoopVectorize, LoopCarriedValueStaysScalar) {
  // The running sum hands acc from one iteration to the next.
  const ExecMemory subject = buildRunningSum();
  const uint64_t before = loopsVectorized();
  expectLoopBitExact(subject, ReturnKind::Void);
  expectLoopBitExact(subject, ReturnKind::Float);
  EXPECT_EQ(loopsVectorized(), before);
}

TEST(LoopVectorize, KeptCallStaysScalar) {
  jit::Assembler as;
  jit::Label loop = as.newLabel();
  as.emit(makeInstr(Mnemonic::Push, 8, Operand::makeReg(Reg::rbx)));
  as.bind(loop);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 0))));
  as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(0), xmm(0)));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  as.emit(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r8)));
  emitLoopTail(as, loop);
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rbx)));
  as.ret();
  const ExecMemory subject = finalize(as);
  const uint64_t before = loopsVectorized();
  expectLoopBitExact(subject, ReturnKind::Void);
  EXPECT_EQ(loopsVectorized(), before);
}

TEST(LoopVectorize, FourByteStrideStaysScalar) {
  // Neighbouring iterations' doubles overlap: lane 1 is not iteration i+1.
  jit::Assembler as;
  jit::Label loop = as.newLabel();
  as.bind(loop);
  as.emit(makeInstr(Mnemonic::Movsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rdi, 0))));
  as.emit(makeInstr(Mnemonic::Mulsd, 8, xmm(0),
                    Operand::makeMem(at(Reg::rcx, 0))));
  as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(at(Reg::rsi, 0)),
                    xmm(0)));
  as.aluRegImm(Mnemonic::Add, Reg::rdi, 4);
  as.aluRegImm(Mnemonic::Add, Reg::rsi, 8);
  as.aluRegImm(Mnemonic::Sub, Reg::rdx, 1);
  as.jcc(isa::Cond::NE, loop);
  as.ret();
  const ExecMemory subject = finalize(as);
  const uint64_t before = loopsVectorized();
  expectLoopBitExact(subject, ReturnKind::Void);
  EXPECT_EQ(loopsVectorized(), before);
}

}  // namespace
}  // namespace brew
