// Differential validation of the emulator's ALU semantics against the
// host CPU: for randomized operands, evalAlu/evalShift/evalImul/... must
// produce exactly the value and exactly the defined flags the hardware
// produces (we assemble the instruction, execute it natively, and read
// RFLAGS via pushfq).
#include <gtest/gtest.h>

#include <emmintrin.h>

#include <cstring>
#include <map>
#include <vector>

#include "emu/semantics.hpp"
#include "emu/value.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"

namespace brew::emu {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

// RFLAGS bit positions in the hardware register.
constexpr uint64_t kHwCF = 1ull << 0;
constexpr uint64_t kHwPF = 1ull << 2;
constexpr uint64_t kHwAF = 1ull << 4;
constexpr uint64_t kHwZF = 1ull << 6;
constexpr uint64_t kHwSF = 1ull << 7;
constexpr uint64_t kHwOF = 1ull << 11;

uint8_t packHwFlags(uint64_t rflags) {
  uint8_t f = 0;
  if (rflags & kHwCF) f |= isa::kFlagCF;
  if (rflags & kHwPF) f |= isa::kFlagPF;
  if (rflags & kHwAF) f |= isa::kFlagAF;
  if (rflags & kHwZF) f |= isa::kFlagZF;
  if (rflags & kHwSF) f |= isa::kFlagSF;
  if (rflags & kHwOF) f |= isa::kFlagOF;
  return f;
}

struct NativeResult {
  uint64_t value;
  uint8_t flags;
};

// Executes "op dst, src" natively with the given operand values and
// returns the result register and flags. `cfIn` seeds the carry flag.
NativeResult runNative(Mnemonic mn, unsigned width, uint64_t a, uint64_t b,
                       bool cfIn) {
  jit::Assembler as;
  // rdi = a, rsi = b, rdx = out flags pointer
  as.movRegReg(Reg::rax, Reg::rdi);
  // Seed CF: bt/stc are not in the subset; emulate with add of -1/0:
  // cmp r11, r11 sets CF=0; to set CF=1: mov r11,1; cmp r10,r11 with r10=0.
  if (cfIn) {
    as.movRegImm(Reg::r10, 0);
    as.movRegImm(Reg::r11, 1);
    as.aluRegReg(Mnemonic::Cmp, Reg::r10, Reg::r11);  // 0 < 1 -> CF=1
  } else {
    as.aluRegReg(Mnemonic::Cmp, Reg::r10, Reg::r10);  // CF=0
  }
  as.emit(makeInstr(mn, static_cast<uint8_t>(width),
                    Operand::makeReg(Reg::rax), Operand::makeReg(Reg::rsi)));
  as.emit(makeInstr(Mnemonic::Pushfq, 8));
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rcx)));
  as.movMemReg(isa::MemOperand{.base = Reg::rdx}, Reg::rcx, 8);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  uint64_t rflags = 0;
  auto fn = mem->entry<uint64_t (*)(uint64_t, uint64_t, uint64_t*)>();
  const uint64_t value = fn(a, b, &rflags);
  return {value, packHwFlags(rflags)};
}

NativeResult runNativeUnary(Mnemonic mn, unsigned width, uint64_t a) {
  jit::Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.aluRegReg(Mnemonic::Cmp, Reg::r10, Reg::r10);  // deterministic flags in
  as.emit(makeInstr(mn, static_cast<uint8_t>(width),
                    Operand::makeReg(Reg::rax)));
  as.emit(makeInstr(Mnemonic::Pushfq, 8));
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rcx)));
  as.movMemReg(isa::MemOperand{.base = Reg::rsi}, Reg::rcx, 8);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  uint64_t rflags = 0;
  auto fn = mem->entry<uint64_t (*)(uint64_t, uint64_t*)>();
  const uint64_t value = fn(a, &rflags);
  return {value, packHwFlags(rflags)};
}

NativeResult runNativeShift(Mnemonic mn, unsigned width, uint64_t a,
                            uint8_t count) {
  jit::Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.aluRegReg(Mnemonic::Cmp, Reg::r10, Reg::r10);
  as.emit(makeInstr(mn, static_cast<uint8_t>(width),
                    Operand::makeReg(Reg::rax), Operand::makeImm(count)));
  as.emit(makeInstr(Mnemonic::Pushfq, 8));
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rcx)));
  as.movMemReg(isa::MemOperand{.base = Reg::rsi}, Reg::rcx, 8);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  uint64_t rflags = 0;
  auto fn = mem->entry<uint64_t (*)(uint64_t, uint64_t*)>();
  const uint64_t value = fn(a, &rflags);
  return {value, packHwFlags(rflags)};
}

class AluDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AluDifferential, MatchesHardware) {
  Prng rng(GetParam());
  const Mnemonic ops[] = {Mnemonic::Add, Mnemonic::Adc, Mnemonic::Sub,
                          Mnemonic::Sbb, Mnemonic::Cmp, Mnemonic::And,
                          Mnemonic::Or, Mnemonic::Xor, Mnemonic::Test};
  const unsigned widths[] = {4, 8};
  const uint64_t interesting[] = {
      0, 1, 2, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0x7FFFFFFF, 0x80000000,
      0xFFFFFFFF, 0x7FFFFFFFFFFFFFFFull, 0x8000000000000000ull,
      0xFFFFFFFFFFFFFFFFull};

  for (int i = 0; i < 120; ++i) {
    const Mnemonic mn = ops[rng.below(std::size(ops))];
    const unsigned w = widths[rng.below(2)];
    const uint64_t a = rng.chance(0.4)
                           ? interesting[rng.below(std::size(interesting))]
                           : rng.next();
    const uint64_t b = rng.chance(0.4)
                           ? interesting[rng.below(std::size(interesting))]
                           : rng.next();
    const bool cf = rng.chance(0.5);

    const OpResult mine = evalAlu(mn, w, a, b, cf);
    const NativeResult hw = runNative(mn, w, a, b, cf);

    if (mn != Mnemonic::Cmp && mn != Mnemonic::Test) {
      // Native result register has width-merge semantics applied.
      const uint64_t expected = mergeWrite(a, mine.value, w);
      ASSERT_EQ(hw.value, expected)
          << isa::row(mn).name << " w=" << w << " a=" << a << " b=" << b;
    }
    ASSERT_EQ(hw.flags & mine.flagsKnown, mine.flagsValue & mine.flagsKnown)
        << isa::row(mn).name << " w=" << w << " a=" << a << " b=" << b
        << " cf=" << cf;
  }
}

TEST_P(AluDifferential, UnaryMatchesHardware) {
  Prng rng(GetParam() * 31 + 7);
  const Mnemonic ops[] = {Mnemonic::Not, Mnemonic::Neg, Mnemonic::Inc,
                          Mnemonic::Dec};
  for (int i = 0; i < 60; ++i) {
    const Mnemonic mn = ops[rng.below(std::size(ops))];
    const unsigned w = rng.chance(0.5) ? 4 : 8;
    const uint64_t a = rng.chance(0.3) ? (rng.chance(0.5) ? 0 : ~0ull)
                                       : rng.next();
    const OpResult mine = evalUnary(mn, w, a);
    const NativeResult hw = runNativeUnary(mn, w, a);
    ASSERT_EQ(hw.value, mergeWrite(a, mine.value, w))
        << isa::row(mn).name << " w=" << w << " a=" << a;
    ASSERT_EQ(hw.flags & mine.flagsKnown, mine.flagsValue & mine.flagsKnown)
        << isa::row(mn).name << " w=" << w << " a=" << a;
  }
}

TEST_P(AluDifferential, ShiftsMatchHardware) {
  Prng rng(GetParam() * 1299721 + 3);
  const Mnemonic ops[] = {Mnemonic::Shl, Mnemonic::Shr, Mnemonic::Sar,
                          Mnemonic::Rol, Mnemonic::Ror};
  for (int i = 0; i < 80; ++i) {
    const Mnemonic mn = ops[rng.below(std::size(ops))];
    const unsigned w = rng.chance(0.5) ? 4 : 8;
    const uint64_t a = rng.next();
    const uint8_t count = static_cast<uint8_t>(rng.below(70));
    const OpResult mine = evalShift(mn, w, a, count);
    const NativeResult hw = runNativeShift(mn, w, a, count);
    const unsigned masked = count & (w == 8 ? 63 : 31);
    ASSERT_EQ(hw.value, mergeWrite(a, mine.value, w))
        << isa::row(mn).name << " w=" << w << " a=" << a
        << " count=" << static_cast<int>(count);
    if (masked != 0) {
      ASSERT_EQ(hw.flags & mine.flagsKnown,
                mine.flagsValue & mine.flagsKnown)
          << isa::row(mn).name << " w=" << w << " a=" << a
          << " count=" << static_cast<int>(count);
    }
  }
}

TEST_P(AluDifferential, ImulMatchesHardware) {
  Prng rng(GetParam() * 97 + 11);
  for (int i = 0; i < 60; ++i) {
    const unsigned w = rng.chance(0.5) ? 4 : 8;
    const uint64_t a = rng.next();
    const uint64_t b = rng.chance(0.5) ? rng.next()
                                       : rng.below(1000);
    const OpResult mine = evalImul(w, a, b);
    const NativeResult hw = runNative(Mnemonic::Imul, w, a, b, false);
    ASSERT_EQ(hw.value, mergeWrite(a, mine.value, w)) << "w=" << w;
    ASSERT_EQ(hw.flags & mine.flagsKnown, mine.flagsValue & mine.flagsKnown)
        << "w=" << w << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Semantics, DivBasics) {
  DivResult r = evalDiv(true, 8, 0, 100, 7);
  EXPECT_FALSE(r.fault);
  EXPECT_EQ(r.quotient, 14u);
  EXPECT_EQ(r.remainder, 2u);

  r = evalDiv(true, 8, ~0ull, static_cast<uint64_t>(-100), 7);  // -100 / 7
  EXPECT_FALSE(r.fault);
  EXPECT_EQ(static_cast<int64_t>(r.quotient), -14);
  EXPECT_EQ(static_cast<int64_t>(r.remainder), -2);

  r = evalDiv(true, 8, 0, 1, 0);  // divide by zero
  EXPECT_TRUE(r.fault);

  // Quotient overflow: INT64_MIN / -1
  r = evalDiv(true, 8, 0xFFFFFFFFFFFFFFFFull, 0x8000000000000000ull,
              static_cast<uint64_t>(-1));
  EXPECT_TRUE(r.fault);

  r = evalDiv(false, 4, 1, 0, 2);  // (1<<32) / 2 = 1<<31 fits u32
  EXPECT_FALSE(r.fault);
  EXPECT_EQ(r.quotient, 0x80000000u);
}

TEST(Semantics, WideMul) {
  WideMulResult r = evalWideMul(false, 8, ~0ull, ~0ull);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 0xFFFFFFFFFFFFFFFEull);
  EXPECT_TRUE(r.flagsValue & isa::kFlagCF);

  r = evalWideMul(true, 8, static_cast<uint64_t>(-3), 5);
  EXPECT_EQ(static_cast<int64_t>(r.lo), -15);
  EXPECT_EQ(r.hi, ~0ull);  // sign extension
  EXPECT_FALSE(r.flagsValue & isa::kFlagCF);

  r = evalWideMul(false, 4, 0x10000, 0x10000);  // 2^32: hi=1, lo=0
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 1u);
}

TEST(Semantics, FpScalar) {
  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, 8);
    return b;
  };
  auto val = [](uint64_t b) {
    double d;
    std::memcpy(&d, &b, 8);
    return d;
  };
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Addsd, 8, bits(1.5), bits(2.25))),
      3.75);
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Mulsd, 8, bits(3.0), bits(-2.0))),
      -6.0);
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Divsd, 8, bits(1.0), bits(8.0))),
      0.125);
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Sqrtsd, 8, 0, bits(9.0))), 3.0);
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Minsd, 8, bits(2.0), bits(-1.0))),
      -1.0);
  EXPECT_DOUBLE_EQ(
      val(evalFpScalar(isa::Mnemonic::Maxsd, 8, bits(2.0), bits(-1.0))),
      2.0);
}

TEST(Semantics, FpCompareFlags) {
  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, 8);
    return b;
  };
  OpResult r = evalFpCompare(8, bits(1.0), bits(2.0));  // a < b
  EXPECT_TRUE(r.flagsValue & isa::kFlagCF);
  EXPECT_FALSE(r.flagsValue & isa::kFlagZF);

  r = evalFpCompare(8, bits(2.0), bits(2.0));
  EXPECT_TRUE(r.flagsValue & isa::kFlagZF);
  EXPECT_FALSE(r.flagsValue & isa::kFlagCF);

  r = evalFpCompare(8, bits(3.0), bits(2.0));
  EXPECT_EQ(r.flagsValue & (isa::kFlagZF | isa::kFlagCF | isa::kFlagPF), 0);

  const uint64_t nan = 0x7FF8000000000001ull;
  r = evalFpCompare(8, nan, bits(2.0));  // unordered
  EXPECT_TRUE(r.flagsValue & isa::kFlagPF);
  EXPECT_TRUE(r.flagsValue & isa::kFlagZF);
  EXPECT_TRUE(r.flagsValue & isa::kFlagCF);
}

TEST(Semantics, Conversions) {
  EXPECT_EQ(evalCvtFpToInt(4, 8, evalCvtIntToFp(8, 4, 42)), 42u);
  EXPECT_EQ(static_cast<int64_t>(
                evalCvtFpToInt(8, 8, evalCvtIntToFp(8, 8,
                                                    static_cast<uint64_t>(
                                                        -123456789)))),
            -123456789);
  // Truncation toward zero.
  double d = 2.9;
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  EXPECT_EQ(evalCvtFpToInt(4, 8, bits), 2u);
  d = -2.9;
  std::memcpy(&bits, &d, 8);
  EXPECT_EQ(static_cast<int32_t>(evalCvtFpToInt(4, 8, bits)), -2);
  // Out of range: integer indefinite.
  d = 1e30;
  std::memcpy(&bits, &d, 8);
  EXPECT_EQ(evalCvtFpToInt(4, 8, bits), 0x80000000u);
}

TEST(Semantics, CondEvaluation) {
  // ZF=1 -> e taken, ne not.
  EXPECT_TRUE(evalCond(Cond::E, isa::kFlagZF));
  EXPECT_FALSE(evalCond(Cond::NE, isa::kFlagZF));
  // SF != OF -> l taken.
  EXPECT_TRUE(evalCond(Cond::L, isa::kFlagSF));
  EXPECT_FALSE(evalCond(Cond::L, isa::kFlagSF | isa::kFlagOF));
  EXPECT_TRUE(evalCond(Cond::GE, 0));
  // Unsigned: CF -> b.
  EXPECT_TRUE(evalCond(Cond::B, isa::kFlagCF));
  EXPECT_TRUE(evalCond(Cond::BE, isa::kFlagZF));
  EXPECT_TRUE(evalCond(Cond::A, 0));
  EXPECT_FALSE(evalCond(Cond::A, isa::kFlagCF));
}

TEST(Semantics, ValueWidthHelpers) {
  EXPECT_EQ(zeroExtend(0xFFFFFFFFFFFFFFFFull, 4), 0xFFFFFFFFull);
  EXPECT_EQ(signExtend(0x80, 1), 0xFFFFFFFFFFFFFF80ull);
  EXPECT_EQ(signExtend(0x7F, 1), 0x7Full);
  EXPECT_EQ(mergeWrite(0x1122334455667788ull, 0xAB, 1),
            0x11223344556677ABull);
  EXPECT_EQ(mergeWrite(0x1122334455667788ull, 0xAABB, 2),
            0x112233445566AABBull);
  EXPECT_EQ(mergeWrite(0x1122334455667788ull, 0xDDCCBBAA, 4),
            0x00000000DDCCBBAAull);
}

// --- SSE ops against the host CPU, bit for bit ---------------------------
//
// Each oracle runs the instruction itself ("op %src, %dst" in inline asm),
// so the operand order is the instruction's: a compiler may swap the
// operands of a commutative intrinsic, which decides which of two NaNs
// propagates.

__m128i toReg(Lanes x) {
  return _mm_set_epi64x(static_cast<int64_t>(x.hi),
                        static_cast<int64_t>(x.lo));
}
Lanes fromReg(__m128i r) {
  alignas(16) uint64_t v[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(v), r);
  return {v[0], v[1]};
}

using Native = Lanes (*)(Lanes a, Lanes b);

#define NATIVE(insn)                                \
  {Mnemonic::insn, [](Lanes a, Lanes b) {           \
     __m128i x = toReg(a);                          \
     const __m128i y = toReg(b);                    \
     asm(#insn " %1, %0" : "+x"(x) : "x"(y));       \
     return fromReg(x);                             \
   }}

template <uint8_t kImm>
Lanes nativeShufpd(Lanes a, Lanes b) {
  __m128i x = toReg(a);
  asm("shufpd %2, %1, %0" : "+x"(x) : "x"(toReg(b)), "i"(kImm));
  return fromReg(x);
}
template <uint8_t kImm>
Lanes nativeShufps(Lanes a, Lanes b) {
  __m128i x = toReg(a);
  asm("shufps %2, %1, %0" : "+x"(x) : "x"(toReg(b)), "i"(kImm));
  return fromReg(x);
}

const std::map<Mnemonic, Native>& nativeOps() {
  static const std::map<Mnemonic, Native> ops = {
      NATIVE(Addsd), NATIVE(Subsd), NATIVE(Mulsd), NATIVE(Divsd),
      NATIVE(Minsd), NATIVE(Maxsd), NATIVE(Sqrtsd), NATIVE(Addss),
      NATIVE(Subss), NATIVE(Mulss), NATIVE(Divss), NATIVE(Sqrtss),
      NATIVE(Addpd), NATIVE(Subpd), NATIVE(Mulpd), NATIVE(Divpd),
      NATIVE(Addps), NATIVE(Subps), NATIVE(Mulps), NATIVE(Divps),
      NATIVE(Paddd), NATIVE(Pxor), NATIVE(Xorpd), NATIVE(Xorps),
      NATIVE(Andpd), NATIVE(Andps), NATIVE(Orpd), NATIVE(Orps),
      NATIVE(Unpcklpd), NATIVE(Unpckhpd), NATIVE(Unpcklps),
      NATIVE(Unpckhps)};
  return ops;
}

// The shuffles, for the selectors checked (asm needs constants).
struct Shuffle {
  Mnemonic mn;
  uint8_t imm;
  Native native;
};
constexpr Shuffle kShuffles[] = {
    {Mnemonic::Shufpd, 0, nativeShufpd<0>},
    {Mnemonic::Shufpd, 1, nativeShufpd<1>},
    {Mnemonic::Shufpd, 2, nativeShufpd<2>},
    {Mnemonic::Shufpd, 3, nativeShufpd<3>},
    {Mnemonic::Shufps, 0x00, nativeShufps<0x00>},
    {Mnemonic::Shufps, 0x1B, nativeShufps<0x1B>},
    {Mnemonic::Shufps, 0x4E, nativeShufps<0x4E>},
    {Mnemonic::Shufps, 0xE4, nativeShufps<0xE4>},
    {Mnemonic::Shufps, 0xB1, nativeShufps<0xB1>},
};

// +-0, +-inf, qNaN, sNaN, denormals and two normal values, as doubles and
// as floats. Each register pairs two of them per 64-bit lane so every
// ordered pair meets in some lane.
std::vector<Lanes> specialInputs() {
  const uint64_t d[] = {0x0000000000000000, 0x8000000000000000,
                        0x7FF0000000000000, 0xFFF0000000000000,
                        0x7FF8000000000123, 0x7FF0000000000456,
                        0x0000000000000001, 0x800FFFFFFFFFFFFF,
                        0x3FF8000000000000, 0xC00A000000000000};
  const uint32_t f[] = {0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
                        0x7FC00123, 0x7F800456, 0x00000001, 0x807FFFFF,
                        0x3FC00000, 0xC0500000};
  std::vector<Lanes> in;
  for (const uint64_t x : d)
    for (const uint64_t y : d) in.push_back({x, y});
  for (const uint32_t x : f)
    for (const uint32_t y : f)
      in.push_back({x | (uint64_t{y} << 32), y | (uint64_t{x} << 32)});
  return in;
}

bool isPacked(isa::Family f) {
  return f == isa::Family::SsePacked || f == isa::Family::SseLogic ||
         f == isa::Family::SseShuffle;
}

// Every scalar row: the low lane (the low 4 bytes for ss) matches.
TEST(Semantics, ScalarMatchesNativeBitForBit) {
  const std::vector<Lanes> inputs = specialInputs();
  size_t covered = 0;
  for (size_t m = 0; m < static_cast<size_t>(Mnemonic::Count_); ++m) {
    const auto mn = static_cast<Mnemonic>(m);
    if (isa::row(mn).family != isa::Family::SseScalar) continue;
    ++covered;
    const auto it = nativeOps().find(mn);
    ASSERT_TRUE(it != nativeOps().end()) << isa::row(mn).name;
    const unsigned w = isa::row(mn).enc.arg;
    for (const Lanes& a : inputs) {
      for (const Lanes& b : inputs) {
        const uint64_t x = zeroExtend(a.lo, w), y = zeroExtend(b.lo, w);
        const uint64_t want = zeroExtend(it->second({x, 0}, {y, 0}).lo, w);
        ASSERT_EQ(evalFpScalar(mn, w, x, y), want)
            << isa::row(mn).name << std::hex << " a=" << x << " b=" << y;
      }
    }
  }
  EXPECT_EQ(covered, 12u);
}

// Every packed row, both lanes, for every pair of inputs.
TEST(Semantics, PackedMatchesNativeBitForBit) {
  const std::vector<Lanes> inputs = specialInputs();
  std::vector<Shuffle> cases;
  for (size_t m = 0; m < static_cast<size_t>(Mnemonic::Count_); ++m) {
    const auto mn = static_cast<Mnemonic>(m);
    if (!isPacked(isa::row(mn).family)) continue;
    const auto it = nativeOps().find(mn);
    size_t shuffles = 0;
    for (const Shuffle& s : kShuffles)
      if (s.mn == mn) {
        cases.push_back(s);
        ++shuffles;
      }
    if (shuffles == 0) {
      ASSERT_TRUE(it != nativeOps().end())
          << "no native oracle for " << isa::row(mn).name;
      cases.push_back({mn, 0, it->second});
    }
  }
  EXPECT_EQ(cases.size(), 20u + 4u + 5u);  // 22 rows, 2 of them shuffles
  for (const Shuffle& c : cases) {
    for (const Lanes& a : inputs) {
      for (const Lanes& b : inputs) {
        const Lanes want = c.native(a, b);
        const Lanes got = evalPacked(c.mn, a, b, c.imm);
        ASSERT_TRUE(got.lo == want.lo && got.hi == want.hi)
            << isa::row(c.mn).name << " imm=" << int{c.imm} << std::hex
            << " a=" << a.hi << ":" << a.lo << " b=" << b.hi << ":" << b.lo
            << " got " << got.hi << ":" << got.lo << " want " << want.hi
            << ":" << want.lo;
      }
    }
  }
}

}  // namespace
}  // namespace brew::emu
