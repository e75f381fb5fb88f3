// The tracer's abstract value domain (the paper's "known-state" of values).
//
// Every 64-bit location (GPR, XMM lane, flag, stack byte) is either
//  - Unknown:  only the runtime will produce it; captured instructions
//              compute it,
//  - Known:    the tracer knows the exact bits; operations on it can be
//              constant-folded away (partial evaluation),
//  - StackRel: known *relative to the frame base* (rsp at entry = offset 0).
//              Stack addresses are meaningful during the trace (they address
//              the shadow stack) but must never be folded into immediates,
//              because the rewritten function runs on a different stack.
//
// `materialized` records whether the runtime location actually holds the
// value at this program point. A value that became known through an *elided*
// instruction is known but not materialized; if a captured instruction needs
// it in a register, the rewriter first emits a materializing mov.
#pragma once

#include <cstdint>

namespace brew::emu {

enum class Tag : uint8_t { Unknown, Known, StackRel };

struct Value {
  Tag tag = Tag::Unknown;
  uint64_t bits = 0;
  bool materialized = true;

  static Value unknown() { return Value{}; }
  static Value known(uint64_t bits, bool materialized = true) {
    return Value{Tag::Known, bits, materialized};
  }
  static Value stackRel(int64_t offset, bool materialized = true) {
    return Value{Tag::StackRel, static_cast<uint64_t>(offset), materialized};
  }

  bool isKnown() const noexcept { return tag == Tag::Known; }
  bool isUnknown() const noexcept { return tag == Tag::Unknown; }
  bool isStackRel() const noexcept { return tag == Tag::StackRel; }

  int64_t stackOffset() const noexcept { return static_cast<int64_t>(bits); }

  // Equality of abstract content (materialization is a code-gen property,
  // not part of the known-world identity used for block variant keying).
  bool sameContent(const Value& other) const noexcept {
    if (tag != other.tag) return false;
    if (tag == Tag::Unknown) return true;
    return bits == other.bits;
  }
};

// Width helpers: x86 writes of width 4 zero-extend into the full register,
// widths 1/2 merge with the old contents.
constexpr uint64_t maskForWidth(unsigned widthBytes) noexcept {
  return widthBytes >= 8 ? ~0ULL : ((1ULL << (widthBytes * 8)) - 1);
}

constexpr uint64_t zeroExtend(uint64_t bits, unsigned widthBytes) noexcept {
  return bits & maskForWidth(widthBytes);
}

constexpr uint64_t signExtend(uint64_t bits, unsigned widthBytes) noexcept {
  if (widthBytes >= 8) return bits;
  const unsigned shift = 64 - widthBytes * 8;
  return static_cast<uint64_t>(
      static_cast<int64_t>(bits << shift) >> shift);
}

// Merge a width-limited write into an old 64-bit register value following
// x86 rules (width 4 zeroes the upper half, 1/2 preserve it).
inline uint64_t mergeWrite(uint64_t oldBits, uint64_t newBits,
                           unsigned widthBytes) noexcept {
  if (widthBytes >= 8) return newBits;
  if (widthBytes == 4) return zeroExtend(newBits, 4);
  const uint64_t mask = maskForWidth(widthBytes);
  return (oldBits & ~mask) | (newBits & mask);
}

// Merge a scalar SSE result into the low 64-bit lane of an XMM register:
// an 8-byte (sd) result replaces the lane, a 4-byte (ss) result keeps bits
// 32-63, unlike a 32-bit GPR write.
inline uint64_t mergeXmmLo(uint64_t oldBits, uint64_t newBits,
                           unsigned widthBytes) noexcept {
  if (widthBytes >= 8) return newBits;
  const uint64_t mask = maskForWidth(widthBytes);
  return (oldBits & ~mask) | (newBits & mask);
}

}  // namespace brew::emu
