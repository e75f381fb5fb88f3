// x86-64 instruction encoder: Instruction -> machine bytes.
//
// The encoder is the inverse of the decoder over the BREW subset plus the
// synthesized forms the rewriter emits (immediates folded into operands,
// literal-pool RIP references). Branch targets are encoded as rel32 against
// `instrAddress`; when the final target is not yet known the caller encodes
// a placeholder and patches the field reported in EncodeInfo.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "support/error.hpp"

namespace brew::isa {

struct EncodeInfo {
  uint32_t length = 0;
  // Byte offset (from instruction start) of a 4-byte field holding either a
  // branch rel32 or a RIP-relative disp32; -1 if the instruction has none.
  int32_t rel32Offset = -1;
  // True when the rel32 field belongs to a literal-pool reference
  // (mem.poolSlot >= 0) rather than a branch target.
  bool isPoolRef = false;
  int32_t poolSlot = -1;
  // Byte offset (from instruction start) of an 8-byte absolute immediate
  // (movabs r64, imm64); -1 otherwise. Lets the emitter record relocations
  // for instructions carrying absolute code addresses (Instruction::absCode).
  int32_t imm64Offset = -1;
};

// Appends the encoding of `instr` (assumed to be placed at `instrAddress`)
// to `out`. Returns ErrorCode::UnencodableInstruction for forms outside the
// supported subset or displacements out of rel32 range.
Status encode(const Instruction& instr, uint64_t instrAddress,
              std::vector<uint8_t>& out, EncodeInfo* info = nullptr);

}  // namespace brew::isa
