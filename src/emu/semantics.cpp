#include "emu/semantics.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "emu/value.hpp"

namespace brew::emu {

using isa::Cond;
using isa::kFlagAF;
using isa::kFlagCF;
using isa::kFlagOF;
using isa::kFlagPF;
using isa::kFlagSF;
using isa::kFlagZF;
using isa::Mnemonic;

namespace {

uint8_t parity(uint64_t value) {
  // PF is parity of the low byte only.
  return (std::popcount(static_cast<uint8_t>(value)) & 1) == 0 ? 1 : 0;
}

uint64_t msb(unsigned width) { return 1ULL << (width * 8 - 1); }

void setResultFlags(OpResult& r, unsigned width) {
  r.flagsKnown |= kFlagZF | kFlagSF | kFlagPF;
  if (zeroExtend(r.value, width) == 0) r.flagsValue |= kFlagZF;
  if (r.value & msb(width)) r.flagsValue |= kFlagSF;
  if (parity(r.value)) r.flagsValue |= kFlagPF;
}

double asDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}
uint64_t fromDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}
float asFloat(uint64_t bits) {
  float f;
  const auto lo = static_cast<uint32_t>(bits);
  std::memcpy(&f, &lo, 4);
  return f;
}
uint64_t fromFloat(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, 4);
  return bits;
}

}  // namespace

OpResult evalAlu(Mnemonic mn, unsigned width, uint64_t a, uint64_t b,
                 bool cf) {
  a = zeroExtend(a, width);
  b = zeroExtend(b, width);
  OpResult r;
  const uint64_t mask = maskForWidth(width);
  const uint64_t signBit = msb(width);

  switch (mn) {
    case Mnemonic::Add:
    case Mnemonic::Adc: {
      const uint64_t carryIn = (mn == Mnemonic::Adc && cf) ? 1 : 0;
      const uint64_t sum = (a + b + carryIn) & mask;
      r.value = sum;
      r.flagsKnown = isa::kAllFlags;
      // carry-out: unsigned overflow
      if (sum < a || (carryIn && sum == a)) r.flagsValue |= kFlagCF;
      if (((a ^ sum) & (b ^ sum)) & signBit) r.flagsValue |= kFlagOF;
      if (((a ^ b ^ sum) >> 4) & 1) r.flagsValue |= kFlagAF;
      setResultFlags(r, width);
      return r;
    }
    case Mnemonic::Sub:
    case Mnemonic::Sbb:
    case Mnemonic::Cmp: {
      const uint64_t borrowIn = (mn == Mnemonic::Sbb && cf) ? 1 : 0;
      const uint64_t diff = (a - b - borrowIn) & mask;
      r.value = (mn == Mnemonic::Cmp) ? a : diff;
      r.flagsKnown = isa::kAllFlags;
      // CF = borrow
      if (a < b + borrowIn || (b == mask && borrowIn)) r.flagsValue |= kFlagCF;
      if (((a ^ b) & (a ^ diff)) & signBit) r.flagsValue |= kFlagOF;
      if (((a ^ b ^ diff) >> 4) & 1) r.flagsValue |= kFlagAF;
      // ZF/SF/PF are on the subtraction result even for cmp.
      OpResult tmp;
      tmp.value = diff;
      setResultFlags(tmp, width);
      r.flagsValue |= tmp.flagsValue;
      r.flagsKnown |= tmp.flagsKnown;
      if (mn == Mnemonic::Cmp) r.value = a;  // cmp does not write
      return r;
    }
    case Mnemonic::And:
    case Mnemonic::Or:
    case Mnemonic::Xor:
    case Mnemonic::Test: {
      uint64_t v;
      if (mn == Mnemonic::And || mn == Mnemonic::Test)
        v = a & b;
      else if (mn == Mnemonic::Or)
        v = a | b;
      else
        v = a ^ b;
      r.value = (mn == Mnemonic::Test) ? a : (v & mask);
      OpResult tmp;
      tmp.value = v & mask;
      setResultFlags(tmp, width);
      r.flagsValue = tmp.flagsValue;  // CF = OF = 0
      // AF is architecturally undefined for logic ops; model as defined-0 so
      // traces are deterministic (no real compiler output consumes it).
      r.flagsKnown = isa::kAllFlags;
      if (mn != Mnemonic::Test) r.value = v & mask;
      return r;
    }
    default:
      return r;
  }
}

OpResult evalUnary(Mnemonic mn, unsigned width, uint64_t a) {
  a = zeroExtend(a, width);
  OpResult r;
  const uint64_t mask = maskForWidth(width);
  switch (mn) {
    case Mnemonic::Not:
      r.value = (~a) & mask;
      return r;  // no flags
    case Mnemonic::Neg: {
      r = evalAlu(Mnemonic::Sub, width, 0, a);
      r.flagsValue &= static_cast<uint8_t>(~kFlagCF);
      if (a != 0) r.flagsValue |= kFlagCF;
      return r;
    }
    case Mnemonic::Inc: {
      r = evalAlu(Mnemonic::Add, width, a, 1);
      r.flagsKnown &= static_cast<uint8_t>(~kFlagCF);  // CF preserved
      r.flagsValue &= static_cast<uint8_t>(~kFlagCF);
      return r;
    }
    case Mnemonic::Dec: {
      r = evalAlu(Mnemonic::Sub, width, a, 1);
      r.flagsKnown &= static_cast<uint8_t>(~kFlagCF);
      r.flagsValue &= static_cast<uint8_t>(~kFlagCF);
      return r;
    }
    default:
      return r;
  }
}

OpResult evalShift(Mnemonic mn, unsigned width, uint64_t a, uint64_t count) {
  a = zeroExtend(a, width);
  const unsigned countMask = (width == 8) ? 63 : 31;
  const unsigned n = static_cast<unsigned>(count) & countMask;
  OpResult r;
  if (n == 0) {
    r.value = a;
    r.flagsKnown = 0;  // flags unchanged
    return r;
  }
  const unsigned bits = width * 8;
  const uint64_t mask = maskForWidth(width);
  switch (mn) {
    case Mnemonic::Shl: {
      const uint64_t wide = (n < 64) ? (a << n) : 0;
      r.value = wide & mask;
      r.flagsKnown = kFlagCF | kFlagZF | kFlagSF | kFlagPF;
      if (n <= bits && ((a >> (bits - n)) & 1)) r.flagsValue |= kFlagCF;
      if (n == 1) {
        r.flagsKnown |= kFlagOF;
        const bool cfOut = (r.flagsValue & kFlagCF) != 0;
        if (((r.value & msb(width)) != 0) != cfOut) r.flagsValue |= kFlagOF;
      }
      setResultFlags(r, width);
      return r;
    }
    case Mnemonic::Shr: {
      r.value = (n < 64) ? (a >> n) : 0;
      r.flagsKnown = kFlagCF | kFlagZF | kFlagSF | kFlagPF;
      if (n <= 64 && n >= 1 && ((a >> (n - 1)) & 1)) r.flagsValue |= kFlagCF;
      if (n == 1) {
        r.flagsKnown |= kFlagOF;
        if (a & msb(width)) r.flagsValue |= kFlagOF;
      }
      setResultFlags(r, width);
      return r;
    }
    case Mnemonic::Sar: {
      const int64_t sa = static_cast<int64_t>(signExtend(a, width));
      const int64_t shifted = (n < 64) ? (sa >> n) : (sa >> 63);
      r.value = static_cast<uint64_t>(shifted) & mask;
      r.flagsKnown = kFlagCF | kFlagZF | kFlagSF | kFlagPF;
      if (n >= 1 && n <= 64 &&
          ((static_cast<uint64_t>(sa) >> (n - 1)) & 1))
        r.flagsValue |= kFlagCF;
      if (n == 1) r.flagsKnown |= kFlagOF;  // OF = 0
      setResultFlags(r, width);
      return r;
    }
    case Mnemonic::Rol: {
      const unsigned rot = n % bits;
      r.value = rot == 0 ? a
                         : (((a << rot) | (a >> (bits - rot))) & mask);
      r.flagsKnown = kFlagCF;
      if (r.value & 1) r.flagsValue |= kFlagCF;
      return r;
    }
    case Mnemonic::Ror: {
      const unsigned rot = n % bits;
      r.value = rot == 0 ? a
                         : (((a >> rot) | (a << (bits - rot))) & mask);
      r.flagsKnown = kFlagCF;
      if (r.value & msb(width)) r.flagsValue |= kFlagCF;
      return r;
    }
    default:
      return r;
  }
}

OpResult evalImul(unsigned width, uint64_t a, uint64_t b) {
  const int64_t sa = static_cast<int64_t>(signExtend(a, width));
  const int64_t sb = static_cast<int64_t>(signExtend(b, width));
  OpResult r;
  const __int128 wide = static_cast<__int128>(sa) * sb;
  const uint64_t truncated =
      zeroExtend(static_cast<uint64_t>(wide), width);
  r.value = truncated;
  // CF/OF set when the full result does not fit the destination.
  const __int128 reSigned = static_cast<int64_t>(signExtend(truncated, width));
  r.flagsKnown = kFlagCF | kFlagOF;  // ZF/SF/PF/AF undefined
  if (wide != reSigned) r.flagsValue |= kFlagCF | kFlagOF;
  return r;
}

WideMulResult evalWideMul(bool isSigned, unsigned width, uint64_t a,
                          uint64_t b) {
  WideMulResult r;
  __int128 wide;
  if (isSigned) {
    wide = static_cast<__int128>(static_cast<int64_t>(signExtend(a, width))) *
           static_cast<int64_t>(signExtend(b, width));
  } else {
    wide = static_cast<__int128>(
        static_cast<unsigned __int128>(zeroExtend(a, width)) *
        static_cast<unsigned __int128>(zeroExtend(b, width)));
  }
  const unsigned bits = width * 8;
  r.lo = zeroExtend(static_cast<uint64_t>(wide), width);
  r.hi = zeroExtend(
      static_cast<uint64_t>(static_cast<unsigned __int128>(wide) >> bits),
      width);
  r.flagsKnown = kFlagCF | kFlagOF;
  bool overflow;
  if (isSigned) {
    const int64_t loSigned = static_cast<int64_t>(signExtend(r.lo, width));
    overflow = wide != static_cast<__int128>(loSigned);
  } else {
    overflow = r.hi != 0;
  }
  if (overflow) r.flagsValue |= kFlagCF | kFlagOF;
  return r;
}

DivResult evalDiv(bool isSigned, unsigned width, uint64_t hi, uint64_t lo,
                  uint64_t divisor) {
  DivResult r;
  divisor = zeroExtend(divisor, width);
  if (divisor == 0) {
    r.fault = true;
    return r;
  }
  const unsigned bits = width * 8;
  if (isSigned) {
    const __int128 dividend =
        (static_cast<__int128>(static_cast<int64_t>(signExtend(hi, width)))
         << bits) |
        static_cast<__int128>(zeroExtend(lo, width));
    const int64_t sdiv = static_cast<int64_t>(signExtend(divisor, width));
    const __int128 q = dividend / sdiv;
    const __int128 rem = dividend % sdiv;
    const __int128 qMin = -(static_cast<__int128>(1) << (bits - 1));
    const __int128 qMax = (static_cast<__int128>(1) << (bits - 1)) - 1;
    if (q < qMin || q > qMax) {
      r.fault = true;
      return r;
    }
    r.quotient = zeroExtend(static_cast<uint64_t>(q), width);
    r.remainder = zeroExtend(static_cast<uint64_t>(rem), width);
  } else {
    const unsigned __int128 dividend =
        (static_cast<unsigned __int128>(zeroExtend(hi, width)) << bits) |
        zeroExtend(lo, width);
    const unsigned __int128 q = dividend / divisor;
    if (q > maskForWidth(width)) {
      r.fault = true;
      return r;
    }
    r.quotient = static_cast<uint64_t>(q);
    r.remainder = static_cast<uint64_t>(dividend % divisor);
  }
  return r;
}

uint64_t evalFpScalar(Mnemonic mn, unsigned width, uint64_t a, uint64_t b) {
  // Unordered or equal operands (a NaN, or +0 against -0) make min and max
  // return the source as it is. The arithmetic returns a NaN operand
  // quieted, the destination's first; C++ `x + y` may leave that choice
  // to the compiler's operand order.
  if (width == 8) {
    const double x = asDouble(a), y = asDouble(b);
    constexpr uint64_t kQuiet = uint64_t{1} << 51;
    if (mn == Mnemonic::Minsd) return x < y ? a : b;
    if (mn == Mnemonic::Maxsd) return x > y ? a : b;
    if (mn != Mnemonic::Sqrtsd && std::isnan(x)) return a | kQuiet;
    if (std::isnan(y)) return b | kQuiet;
    switch (mn) {
      case Mnemonic::Addsd: return fromDouble(x + y);
      case Mnemonic::Subsd: return fromDouble(x - y);
      case Mnemonic::Mulsd: return fromDouble(x * y);
      case Mnemonic::Divsd: return fromDouble(x / y);
      case Mnemonic::Sqrtsd: return fromDouble(std::sqrt(y));
      default: return 0;
    }
  }
  const float x = asFloat(a), y = asFloat(b);
  constexpr uint64_t kQuiet = uint64_t{1} << 22;
  if (mn != Mnemonic::Sqrtss && std::isnan(x))
    return zeroExtend(a, 4) | kQuiet;
  if (std::isnan(y)) return zeroExtend(b, 4) | kQuiet;
  switch (mn) {
    case Mnemonic::Addss: return fromFloat(x + y);
    case Mnemonic::Subss: return fromFloat(x - y);
    case Mnemonic::Mulss: return fromFloat(x * y);
    case Mnemonic::Divss: return fromFloat(x / y);
    case Mnemonic::Sqrtss: return fromFloat(std::sqrt(y));
    default: return 0;
  }
}

Lanes evalPacked(Mnemonic mn, Lanes a, Lanes b, uint8_t imm) {
  const isa::MnemonicInfo& row = isa::row(mn);
  if (row.laneOp != Mnemonic::Invalid) {
    const unsigned lw = row.laneWidth;
    const bool fp = isa::row(row.laneOp).family == isa::Family::SseScalar;
    const auto lanes = [&](uint64_t x, uint64_t y) {
      uint64_t out = 0;
      for (unsigned shift = 0; shift < 64; shift += lw * 8) {
        const uint64_t xs = zeroExtend(x >> shift, lw);
        const uint64_t ys = zeroExtend(y >> shift, lw);
        const uint64_t r = fp ? evalFpScalar(row.laneOp, lw, xs, ys)
                              : evalAlu(row.laneOp, lw, xs, ys).value;
        out |= zeroExtend(r, lw) << shift;
      }
      return out;
    };
    return {lanes(a.lo, b.lo), lanes(a.hi, b.hi)};
  }
  // Shuffles, over the 32-bit elements 0..3 of a register.
  const auto el = [](Lanes x, unsigned i) {
    const uint64_t half = (i & 2) ? x.hi : x.lo;
    return (i & 1) ? (half >> 32) : (half & 0xffffffffu);
  };
  const auto join = [](uint64_t lo, uint64_t hi) { return lo | (hi << 32); };
  switch (mn) {
    case Mnemonic::Unpcklpd: return {a.lo, b.lo};
    case Mnemonic::Unpckhpd: return {a.hi, b.hi};
    case Mnemonic::Shufpd:
      return {(imm & 1) ? a.hi : a.lo, (imm & 2) ? b.hi : b.lo};
    case Mnemonic::Unpcklps:
      return {join(el(a, 0), el(b, 0)), join(el(a, 1), el(b, 1))};
    case Mnemonic::Unpckhps:
      return {join(el(a, 2), el(b, 2)), join(el(a, 3), el(b, 3))};
    case Mnemonic::Shufps:
      return {join(el(a, imm & 3), el(a, (imm >> 2) & 3)),
              join(el(b, (imm >> 4) & 3), el(b, (imm >> 6) & 3))};
    default:
      return a;
  }
}

uint64_t evalCvtIntToFp(unsigned fpWidth, unsigned intWidth, uint64_t bits) {
  const int64_t v = static_cast<int64_t>(signExtend(bits, intWidth));
  if (fpWidth == 8) return fromDouble(static_cast<double>(v));
  return fromFloat(static_cast<float>(v));
}

uint64_t evalCvtFpToInt(unsigned intWidth, unsigned fpWidth, uint64_t bits) {
  const double v = (fpWidth == 8) ? asDouble(bits)
                                  : static_cast<double>(asFloat(bits));
  // Truncating conversion with the x86 out-of-range "integer indefinite".
  if (intWidth == 8) {
    if (!(v >= -9.2233720368547758e18 && v < 9.2233720368547758e18))
      return 0x8000000000000000ULL;
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  }
  if (!(v >= -2147483648.0 && v < 2147483648.0)) return 0x80000000ULL;
  return zeroExtend(
      static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(v))),
      4);
}

uint64_t evalCvtFpToFp(unsigned dstWidth, uint64_t bits) {
  if (dstWidth == 8) return fromDouble(static_cast<double>(asFloat(bits)));
  return fromFloat(static_cast<float>(asDouble(bits)));
}

OpResult evalFpCompare(unsigned width, uint64_t a, uint64_t b) {
  OpResult r;
  r.flagsKnown = isa::kAllFlags;  // OF/SF/AF cleared by ucomis
  const double x = (width == 8) ? asDouble(a) : asFloat(a);
  const double y = (width == 8) ? asDouble(b) : asFloat(b);
  if (std::isnan(x) || std::isnan(y)) {
    r.flagsValue = kFlagZF | kFlagPF | kFlagCF;
  } else if (x < y) {
    r.flagsValue = kFlagCF;
  } else if (x == y) {
    r.flagsValue = kFlagZF;
  }
  return r;
}

bool evalCond(Cond cond, uint8_t f) {
  const bool cf = f & kFlagCF;
  const bool zf = f & kFlagZF;
  const bool sf = f & kFlagSF;
  const bool of = f & kFlagOF;
  const bool pf = f & kFlagPF;
  switch (cond) {
    case Cond::O: return of;
    case Cond::NO: return !of;
    case Cond::B: return cf;
    case Cond::AE: return !cf;
    case Cond::E: return zf;
    case Cond::NE: return !zf;
    case Cond::BE: return cf || zf;
    case Cond::A: return !cf && !zf;
    case Cond::S: return sf;
    case Cond::NS: return !sf;
    case Cond::P: return pf;
    case Cond::NP: return !pf;
    case Cond::L: return sf != of;
    case Cond::GE: return sf == of;
    case Cond::LE: return zf || (sf != of);
    case Cond::G: return !zf && (sf == of);
  }
  return false;
}

}  // namespace brew::emu
