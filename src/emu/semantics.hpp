// Concrete x86-64 operation semantics (value + RFLAGS), used by the
// tracing rewriter for constant folding of known values.
//
// Flags that the hardware leaves undefined for an operation are excluded
// from `flagsKnown`, so the tracer never folds a branch on an undefined
// flag; `flagsValue` gives them a fixed value (0), which is as legal as
// any other choice.
#pragma once

#include <cstdint>

#include "isa/instruction.hpp"

namespace brew::emu {

struct OpResult {
  uint64_t value = 0;      // width-masked result bits
  uint8_t flagsKnown = 0;  // kFlag* bits with defined values
  uint8_t flagsValue = 0;
};

// add/adc/sub/sbb/cmp/and/or/xor/test. `cf` is the carry-in (adc/sbb only).
OpResult evalAlu(isa::Mnemonic mn, unsigned width, uint64_t a, uint64_t b,
                 bool cf = false);

// not/neg/inc/dec.
OpResult evalUnary(isa::Mnemonic mn, unsigned width, uint64_t a);

// shl/shr/sar/rol/ror. When the masked count is zero no flags are written;
// flagsKnown is 0 and `value` equals `a`.
OpResult evalShift(isa::Mnemonic mn, unsigned width, uint64_t a,
                   uint64_t count);

// Two/three operand imul (truncating).
OpResult evalImul(unsigned width, uint64_t a, uint64_t b);

// One-operand widening multiply.
struct WideMulResult {
  uint64_t lo = 0, hi = 0;
  uint8_t flagsKnown = 0;
  uint8_t flagsValue = 0;
};
WideMulResult evalWideMul(bool isSigned, unsigned width, uint64_t a,
                          uint64_t b);

// One-operand divide (rdx:rax by divisor). `fault` mirrors #DE.
struct DivResult {
  uint64_t quotient = 0, remainder = 0;
  bool fault = false;
};
DivResult evalDiv(bool isSigned, unsigned width, uint64_t hi, uint64_t lo,
                  uint64_t divisor);

// Scalar SSE arithmetic on the low lane; `width` 8 = double, 4 = float.
// Covers add/sub/mul/div/min/max/sqrt (sqrt ignores `a`).
uint64_t evalFpScalar(isa::Mnemonic mn, unsigned width, uint64_t a,
                      uint64_t b);

// An XMM register as its two 64-bit lanes.
struct Lanes {
  uint64_t lo = 0, hi = 0;
};

// The packed ops (isa::Family SsePacked, SseLogic and SseShuffle): `a` is
// the destination's old value, `b` the source, `imm` the shufpd/shufps
// selector. Lane-wise ops apply their row's laneOp to each lane.
Lanes evalPacked(isa::Mnemonic mn, Lanes a, Lanes b, uint8_t imm = 0);

// Conversions.
uint64_t evalCvtIntToFp(unsigned fpWidth, unsigned intWidth, uint64_t bits);
uint64_t evalCvtFpToInt(unsigned intWidth, unsigned fpWidth, uint64_t bits);
uint64_t evalCvtFpToFp(unsigned dstWidth, uint64_t bits);

// ucomis/comis: ZF/PF/CF per comparison result, OF/SF/AF cleared.
OpResult evalFpCompare(unsigned width, uint64_t a, uint64_t b);

// Condition evaluation over a full flag value byte.
bool evalCond(isa::Cond cond, uint8_t flagsValue);

}  // namespace brew::emu
