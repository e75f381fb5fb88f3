#include "isa/encoder.hpp"

#include <cstring>

namespace brew::isa {

namespace {

Error efail(const Instruction& instr, const char* what) {
  return Error{ErrorCode::UnencodableInstruction, instr.address,
               std::string(what) + " (" + row(instr.mnemonic).name + ")"};
}

bool fitsS8(int64_t v) { return v >= -128 && v <= 127; }
bool fitsS32(int64_t v) {
  return v >= INT32_MIN && v <= INT32_MAX;
}

// Working buffer for one instruction; flushed to the output vector at the
// end so a failed encode leaves `out` untouched.
struct Emitter {
  uint8_t buf[24];
  uint32_t len = 0;
  int32_t rel32Offset = -1;
  bool isPoolRef = false;
  int32_t poolSlot = -1;
  int32_t imm64Offset = -1;

  void u8(uint8_t b) { buf[len++] = b; }
  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v));
    u8(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<uint8_t>(v >> (8 * i)));
  }
};

// True when a byte-width access to this register requires a REX prefix
// (spl/bpl/sil/dil instead of legacy ah/ch/dh/bh).
bool byteRegNeedsRex(Reg r) { return isGpr(r) && regNum(r) >= 4; }

struct RexNeed {
  bool w = false, r = false, x = false, b = false, force = false;
  bool any() const { return w || r || x || b || force; }
};

// Emits 66-prefix (width 2), REX, opcode escape and opcode are done by
// callers; this helper emits ModRM+SIB+disp for reg `regField` (0..7 after
// REX extraction) and an r/m operand.
struct ModRMEnc {
  uint8_t modrm = 0;
  bool hasSib = false;
  uint8_t sib = 0;
  int dispSize = 0;  // 0, 1 or 4
  int32_t disp = 0;
  bool ripRel = false;
};

Status buildModRM(const Instruction& instr, uint8_t regNumFull,
                  const Operand& rm, RexNeed& rex, ModRMEnc& enc) {
  rex.r = (regNumFull >> 3) & 1;
  const uint8_t regField = regNumFull & 7;

  if (rm.isReg()) {
    const uint8_t rmNum = regNum(rm.reg);
    rex.b = (rmNum >> 3) & 1;
    enc.modrm = static_cast<uint8_t>(0xC0 | (regField << 3) | (rmNum & 7));
    return Status::okStatus();
  }
  if (!rm.isMem()) return efail(instr, "r/m operand is not reg or mem");

  const MemOperand& m = rm.mem;
  if (m.ripRelative) {
    enc.modrm = static_cast<uint8_t>(0x00 | (regField << 3) | 5);
    enc.dispSize = 4;
    enc.disp = m.disp;  // patched by caller for pool/ripTarget refs
    enc.ripRel = true;
    return Status::okStatus();
  }

  const bool hasIndex = m.index != Reg::none;
  if (hasIndex && regNum(m.index) == 4 && m.index == Reg::rsp)
    return efail(instr, "rsp cannot be an index register");

  if (m.base == Reg::none) {
    // [index*scale + disp32] or plain [disp32]: SIB with base=101, mod=00.
    enc.hasSib = true;
    uint8_t scaleBits = 0;
    switch (m.scale) {
      case 1: scaleBits = 0; break;
      case 2: scaleBits = 1; break;
      case 4: scaleBits = 2; break;
      case 8: scaleBits = 3; break;
      default: return efail(instr, "bad scale");
    }
    uint8_t indexField = 4;  // none
    if (hasIndex) {
      const uint8_t idx = regNum(m.index);
      rex.x = (idx >> 3) & 1;
      indexField = idx & 7;
    }
    enc.modrm = static_cast<uint8_t>(0x00 | (regField << 3) | 4);
    enc.sib = static_cast<uint8_t>((scaleBits << 6) | (indexField << 3) | 5);
    enc.dispSize = 4;
    enc.disp = m.disp;
    return Status::okStatus();
  }

  const uint8_t baseNum = regNum(m.base);
  rex.b = (baseNum >> 3) & 1;
  const uint8_t baseField = baseNum & 7;

  uint8_t mod;
  if (m.disp == 0 && baseField != 5) {
    mod = 0;
    enc.dispSize = 0;
  } else if (fitsS8(m.disp)) {
    mod = 1;
    enc.dispSize = 1;
  } else {
    mod = 2;
    enc.dispSize = 4;
  }
  enc.disp = m.disp;

  if (hasIndex || baseField == 4) {
    enc.hasSib = true;
    uint8_t scaleBits = 0;
    switch (m.scale) {
      case 1: scaleBits = 0; break;
      case 2: scaleBits = 1; break;
      case 4: scaleBits = 2; break;
      case 8: scaleBits = 3; break;
      default: return efail(instr, "bad scale");
    }
    uint8_t indexField = 4;
    if (hasIndex) {
      const uint8_t idx = regNum(m.index);
      rex.x = (idx >> 3) & 1;
      indexField = idx & 7;
    }
    enc.modrm = static_cast<uint8_t>((mod << 6) | (regField << 3) | 4);
    enc.sib =
        static_cast<uint8_t>((scaleBits << 6) | (indexField << 3) | baseField);
  } else {
    enc.modrm = static_cast<uint8_t>((mod << 6) | (regField << 3) | baseField);
  }
  return Status::okStatus();
}

// Full emit of one "standard form" instruction:
//   [mandatory prefix] [66] [REX] [0F [op2]] op modrm [sib] [disp] [imm]
struct Form {
  uint8_t mandatory = 0;     // 0x66, 0xF2, 0xF3 or 0
  bool opSize66 = false;     // width-2 operand size prefix
  bool escape0F = false;
  uint8_t opcode = 0;
  bool rexW = false;
  bool forceRex = false;
};

Status emitForm(Emitter& em, const Instruction& instr, const Form& form,
                uint8_t regNumFull, const Operand& rm, int64_t imm = 0,
                int immSize = 0, int32_t poolSlot = -1,
                int64_t ripTarget = 0, uint64_t instrAddress = 0) {
  RexNeed rex;
  rex.w = form.rexW;
  rex.force = form.forceRex;
  ModRMEnc enc;
  if (Status s = buildModRM(instr, regNumFull, rm, rex, enc); !s) return s;

  if (form.mandatory != 0) em.u8(form.mandatory);
  if (form.opSize66) em.u8(0x66);
  if (rex.any())
    em.u8(static_cast<uint8_t>(0x40 | (rex.w << 3) | (rex.r << 2) |
                               (rex.x << 1) | (rex.b ? 1 : 0)));
  if (form.escape0F) em.u8(0x0F);
  em.u8(form.opcode);
  em.u8(enc.modrm);
  if (enc.hasSib) em.u8(enc.sib);
  if (enc.dispSize == 1) {
    em.u8(static_cast<uint8_t>(enc.disp));
  } else if (enc.dispSize == 4) {
    if (enc.ripRel) {
      em.rel32Offset = static_cast<int32_t>(em.len);
      em.isPoolRef = poolSlot >= 0;
      em.poolSlot = poolSlot;
      if (poolSlot < 0 && ripTarget != 0) {
        // Re-displace against the new instruction location.
        const int64_t end =
            static_cast<int64_t>(instrAddress) + em.len + 4 + immSize;
        const int64_t rel = ripTarget - end;
        if (!fitsS32(rel))
          return efail(instr, "RIP-relative target out of rel32 range");
        enc.disp = static_cast<int32_t>(rel);
      }
    }
    em.u32(static_cast<uint32_t>(enc.disp));
  }
  switch (immSize) {
    case 0: break;
    case 1: em.u8(static_cast<uint8_t>(imm)); break;
    case 2: em.u16(static_cast<uint16_t>(imm)); break;
    case 4: em.u32(static_cast<uint32_t>(imm)); break;
    case 8: em.u64(static_cast<uint64_t>(imm)); break;
  }
  return Status::okStatus();
}

Status encodeImpl(const Instruction& instr, uint64_t instrAddress,
                  Emitter& em) {
  const Mnemonic mn = instr.mnemonic;
  const uint8_t w = instr.width;
  const bool w66 = (w == 2);
  const bool wRex = (w == 8);

  auto rel32Branch = [&](std::initializer_list<uint8_t> opcodeBytes)
      -> Status {
    for (uint8_t b : opcodeBytes) em.u8(b);
    em.rel32Offset = static_cast<int32_t>(em.len);
    const int64_t target = instr.ops[0].imm;
    const int64_t rel =
        target - (static_cast<int64_t>(instrAddress) + em.len + 4);
    if (!fitsS32(rel)) return efail(instr, "branch target out of range");
    em.u32(static_cast<uint32_t>(rel));
    return Status::okStatus();
  };

  // Pull pool/rip info from a memory operand if present.
  int32_t poolSlot = -1;
  int64_t ripTarget = 0;
  for (unsigned i = 0; i < instr.nops; ++i) {
    if (instr.ops[i].isMem()) {
      poolSlot = instr.ops[i].mem.poolSlot;
      ripTarget = instr.ops[i].mem.ripTarget;
    }
  }

  // The ALU group and the SSE `op xmm, xmm/m` forms encode from their row.
  const Encoding& enc = row(mn).enc;
  if (enc.kind == Encoding::Kind::Sse) {
    Form f{.mandatory = enc.prefix, .escape0F = true, .opcode = enc.opcode};
    return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1], 0,
                    0, poolSlot, ripTarget, instrAddress);
  }
  if (enc.kind == Encoding::Kind::Alu) {
    const Operand& dst = instr.ops[0];
    const Operand& src = instr.ops[1];
    if (src.isImm()) {
      int64_t imm = src.imm;
      if (w == 8 && !fitsS32(imm)) return efail(instr, "alu imm64");
      uint8_t opc;
      int immSize;
      if (w == 1) {
        opc = 0x80;
        immSize = 1;
      } else if (fitsS8(imm)) {
        opc = 0x83;
        immSize = 1;
      } else {
        opc = 0x81;
        immSize = (w == 2) ? 2 : 4;
      }
      Form f{.opSize66 = w66, .opcode = opc, .rexW = wRex};
      if (w == 1 && dst.isReg() && byteRegNeedsRex(dst.reg)) f.forceRex = true;
      return emitForm(em, instr, f, enc.arg, dst, imm, immSize,
                      poolSlot, ripTarget, instrAddress);
    }
    const bool byteForce =
        (w == 1) && ((dst.isReg() && byteRegNeedsRex(dst.reg)) ||
                     (src.isReg() && byteRegNeedsRex(src.reg)));
    if (dst.isReg() && src.isMem()) {  // RM form: opcode+2
      Form f{.opSize66 = w66,
             .opcode = static_cast<uint8_t>(w == 1 ? enc.opcode + 1
                                                   : enc.opcode + 2),
             .rexW = wRex,
             .forceRex = byteForce};
      return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }
    // MR form (covers reg,reg and mem,reg)
    Form f{.opSize66 = w66,
           .opcode = static_cast<uint8_t>(w == 1 ? enc.opcode - 1
                                                 : enc.opcode),
           .rexW = wRex,
           .forceRex = byteForce};
    if (!src.isReg()) return efail(instr, "alu operand form");
    return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                    ripTarget, instrAddress);
  }

  switch (mn) {
    case Mnemonic::Nop:
      em.u8(0x90);
      return Status::okStatus();
    case Mnemonic::Ret:
      if (instr.nops == 1 && instr.ops[0].imm != 0) {
        em.u8(0xC2);
        em.u16(static_cast<uint16_t>(instr.ops[0].imm));
      } else {
        em.u8(0xC3);
      }
      return Status::okStatus();
    case Mnemonic::Leave:
      em.u8(0xC9);
      return Status::okStatus();
    case Mnemonic::Pushfq:
      em.u8(0x9C);
      return Status::okStatus();
    case Mnemonic::Popfq:
      em.u8(0x9D);
      return Status::okStatus();
    case Mnemonic::Int3:
      em.u8(0xCC);
      return Status::okStatus();
    case Mnemonic::Ud2:
      em.u8(0x0F);
      em.u8(0x0B);
      return Status::okStatus();
    case Mnemonic::Endbr64:
      em.u8(0xF3);
      em.u8(0x0F);
      em.u8(0x1E);
      em.u8(0xFA);
      return Status::okStatus();

    case Mnemonic::Cdqe: case Mnemonic::Cdq:
      if (w66) em.u8(0x66);
      if (wRex) em.u8(0x48);
      em.u8(mn == Mnemonic::Cdqe ? 0x98 : 0x99);
      return Status::okStatus();

    case Mnemonic::Jmp:
      return rel32Branch({0xE9});
    case Mnemonic::Call:
      return rel32Branch({0xE8});
    case Mnemonic::Jcc:
      return rel32Branch(
          {0x0F, static_cast<uint8_t>(0x80 + static_cast<uint8_t>(instr.cond))});

    case Mnemonic::JmpInd: {
      Form f{.opcode = 0xFF};
      return emitForm(em, instr, f, 4, instr.ops[0], 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }
    case Mnemonic::CallInd: {
      Form f{.opcode = 0xFF};
      return emitForm(em, instr, f, 2, instr.ops[0], 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Push: {
      const Operand& src = instr.ops[0];
      if (src.isReg()) {
        const uint8_t n = regNum(src.reg);
        if (n >= 8) em.u8(0x41);
        em.u8(static_cast<uint8_t>(0x50 + (n & 7)));
        return Status::okStatus();
      }
      if (src.isImm()) {
        if (fitsS8(src.imm)) {
          em.u8(0x6A);
          em.u8(static_cast<uint8_t>(src.imm));
        } else if (fitsS32(src.imm)) {
          em.u8(0x68);
          em.u32(static_cast<uint32_t>(src.imm));
        } else {
          return efail(instr, "push imm64");
        }
        return Status::okStatus();
      }
      Form f{.opcode = 0xFF};
      return emitForm(em, instr, f, 6, src, 0, 0, poolSlot, ripTarget,
                      instrAddress);
    }
    case Mnemonic::Pop: {
      const Operand& dst = instr.ops[0];
      if (!dst.isReg()) return efail(instr, "pop to memory");
      const uint8_t n = regNum(dst.reg);
      if (n >= 8) em.u8(0x41);
      em.u8(static_cast<uint8_t>(0x58 + (n & 7)));
      return Status::okStatus();
    }

    case Mnemonic::Mov: {
      const Operand& dst = instr.ops[0];
      const Operand& src = instr.ops[1];
      if (src.isImm()) {
        if (dst.isReg()) {
          if (w == 8 && !fitsS32(src.imm)) {  // movabs
            const uint8_t n = regNum(dst.reg);
            em.u8(static_cast<uint8_t>(0x48 | ((n >> 3) & 1)));
            em.u8(static_cast<uint8_t>(0xB8 + (n & 7)));
            em.imm64Offset = static_cast<int32_t>(em.len);
            em.u64(static_cast<uint64_t>(src.imm));
            return Status::okStatus();
          }
          if (w == 4) {  // B8+r imm32 (zero-extends)
            const uint8_t n = regNum(dst.reg);
            if (n >= 8) em.u8(0x41);
            em.u8(static_cast<uint8_t>(0xB8 + (n & 7)));
            em.u32(static_cast<uint32_t>(src.imm));
            return Status::okStatus();
          }
          if (w == 1) {
            const uint8_t n = regNum(dst.reg);
            if (n >= 8 || byteRegNeedsRex(dst.reg))
              em.u8(static_cast<uint8_t>(0x40 | ((n >> 3) & 1)));
            em.u8(static_cast<uint8_t>(0xB0 + (n & 7)));
            em.u8(static_cast<uint8_t>(src.imm));
            return Status::okStatus();
          }
        }
        // C6/C7 /0 r/m, imm (sign-extended imm32 for w=8)
        if (w == 8 && !fitsS32(src.imm))
          return efail(instr, "mov m64, imm64");
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(w == 1 ? 0xC6 : 0xC7),
               .rexW = wRex};
        const int immSize = (w == 1) ? 1 : (w == 2 ? 2 : 4);
        if (w == 1 && dst.isReg() && byteRegNeedsRex(dst.reg)) f.forceRex = true;
        return emitForm(em, instr, f, 0, dst, src.imm, immSize, poolSlot,
                        ripTarget, instrAddress);
      }
      if (dst.isReg() && (src.isMem() || src.isReg())) {  // 8A/8B RM
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(w == 1 ? 0x8A : 0x8B),
               .rexW = wRex};
        if (w == 1 && (byteRegNeedsRex(dst.reg) ||
                       (src.isReg() && byteRegNeedsRex(src.reg))))
          f.forceRex = true;
        return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      if (dst.isMem() && src.isReg()) {  // 88/89 MR
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(w == 1 ? 0x88 : 0x89),
               .rexW = wRex};
        if (w == 1 && byteRegNeedsRex(src.reg)) f.forceRex = true;
        return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      return efail(instr, "mov form");
    }

    case Mnemonic::Movsxd: {
      Form f{.opcode = 0x63, .rexW = (w == 8)};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }
    case Mnemonic::Movsx:
    case Mnemonic::Movzx: {
      const bool sign = (mn == Mnemonic::Movsx);
      uint8_t opc;
      if (instr.srcWidth == 1)
        opc = sign ? 0xBE : 0xB6;
      else if (instr.srcWidth == 2)
        opc = sign ? 0xBF : 0xB7;
      else
        return efail(instr, "movsx/movzx source width");
      Form f{.opSize66 = w66, .escape0F = true, .opcode = opc, .rexW = wRex};
      if (instr.srcWidth == 1 && instr.ops[1].isReg() &&
          byteRegNeedsRex(instr.ops[1].reg))
        f.forceRex = true;
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }

    case Mnemonic::Lea: {
      Form f{.opSize66 = w66, .opcode = 0x8D, .rexW = wRex};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }

    case Mnemonic::Test: {
      const Operand& a = instr.ops[0];
      const Operand& b = instr.ops[1];
      if (b.isImm()) {
        if (w == 8 && !fitsS32(b.imm)) return efail(instr, "test imm64");
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(w == 1 ? 0xF6 : 0xF7),
               .rexW = wRex};
        if (w == 1 && a.isReg() && byteRegNeedsRex(a.reg)) f.forceRex = true;
        const int immSize = (w == 1) ? 1 : (w == 2 ? 2 : 4);
        return emitForm(em, instr, f, 0, a, b.imm, immSize, poolSlot,
                        ripTarget, instrAddress);
      }
      if (!b.isReg()) return efail(instr, "test operand form");
      Form f{.opSize66 = w66,
             .opcode = static_cast<uint8_t>(w == 1 ? 0x84 : 0x85),
             .rexW = wRex};
      if (w == 1 && (byteRegNeedsRex(b.reg) ||
                     (a.isReg() && byteRegNeedsRex(a.reg))))
        f.forceRex = true;
      return emitForm(em, instr, f, regNum(b.reg), a, 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Not: case Mnemonic::Neg:
    case Mnemonic::MulWide: case Mnemonic::ImulWide:
    case Mnemonic::Div: case Mnemonic::Idiv: {
      uint8_t ext;
      switch (mn) {
        case Mnemonic::Not: ext = 2; break;
        case Mnemonic::Neg: ext = 3; break;
        case Mnemonic::MulWide: ext = 4; break;
        case Mnemonic::ImulWide: ext = 5; break;
        case Mnemonic::Div: ext = 6; break;
        default: ext = 7; break;
      }
      Form f{.opSize66 = w66,
             .opcode = static_cast<uint8_t>(w == 1 ? 0xF6 : 0xF7),
             .rexW = wRex};
      if (w == 1 && instr.ops[0].isReg() && byteRegNeedsRex(instr.ops[0].reg))
        f.forceRex = true;
      return emitForm(em, instr, f, ext, instr.ops[0], 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Inc: case Mnemonic::Dec: {
      Form f{.opSize66 = w66,
             .opcode = static_cast<uint8_t>(w == 1 ? 0xFE : 0xFF),
             .rexW = wRex};
      return emitForm(em, instr, f,
                      static_cast<uint8_t>(mn == Mnemonic::Inc ? 0 : 1),
                      instr.ops[0], 0, 0, poolSlot, ripTarget, instrAddress);
    }

    case Mnemonic::Imul: {
      if (instr.nops == 3) {
        const int64_t imm = instr.ops[2].imm;
        if (!fitsS32(imm)) return efail(instr, "imul imm64");
        const bool short8 = fitsS8(imm);
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(short8 ? 0x6B : 0x69),
               .rexW = wRex};
        const int immSize = short8 ? 1 : (w == 2 ? 2 : 4);
        return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                        imm, immSize, poolSlot, ripTarget, instrAddress);
      }
      Form f{.opSize66 = w66, .escape0F = true, .opcode = 0xAF, .rexW = wRex};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }

    case Mnemonic::Shl: case Mnemonic::Shr: case Mnemonic::Sar:
    case Mnemonic::Rol: case Mnemonic::Ror: {
      uint8_t ext;
      switch (mn) {
        case Mnemonic::Rol: ext = 0; break;
        case Mnemonic::Ror: ext = 1; break;
        case Mnemonic::Shl: ext = 4; break;
        case Mnemonic::Shr: ext = 5; break;
        default: ext = 7; break;
      }
      const Operand& count = instr.ops[1];
      if (count.isReg()) {  // by CL
        if (count.reg != Reg::rcx) return efail(instr, "shift count register");
        Form f{.opSize66 = w66,
               .opcode = static_cast<uint8_t>(w == 1 ? 0xD2 : 0xD3),
               .rexW = wRex};
        return emitForm(em, instr, f, ext, instr.ops[0], 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      Form f{.opSize66 = w66,
             .opcode = static_cast<uint8_t>(w == 1 ? 0xC0 : 0xC1),
             .rexW = wRex};
      return emitForm(em, instr, f, ext, instr.ops[0], count.imm, 1, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Cmovcc: {
      Form f{.opSize66 = w66,
             .escape0F = true,
             .opcode = static_cast<uint8_t>(0x40 + static_cast<uint8_t>(
                                                       instr.cond)),
             .rexW = wRex};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }
    case Mnemonic::Setcc: {
      Form f{.escape0F = true,
             .opcode = static_cast<uint8_t>(0x90 + static_cast<uint8_t>(
                                                       instr.cond))};
      if (instr.ops[0].isReg() && byteRegNeedsRex(instr.ops[0].reg))
        f.forceRex = true;
      return emitForm(em, instr, f, 0, instr.ops[0], 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    // --- SSE ---
    case Mnemonic::Movsd: case Mnemonic::Movss:
    case Mnemonic::Movapd: case Mnemonic::Movaps:
    case Mnemonic::Movupd: case Mnemonic::Movups:
    case Mnemonic::Movdqa: case Mnemonic::Movdqu: {
      uint8_t mandatory = 0;
      uint8_t loadOpc = 0x10;
      switch (mn) {
        case Mnemonic::Movsd: mandatory = 0xF2; loadOpc = 0x10; break;
        case Mnemonic::Movss: mandatory = 0xF3; loadOpc = 0x10; break;
        case Mnemonic::Movupd: mandatory = 0x66; loadOpc = 0x10; break;
        case Mnemonic::Movups: mandatory = 0x00; loadOpc = 0x10; break;
        case Mnemonic::Movapd: mandatory = 0x66; loadOpc = 0x28; break;
        case Mnemonic::Movaps: mandatory = 0x00; loadOpc = 0x28; break;
        case Mnemonic::Movdqa: mandatory = 0x66; loadOpc = 0x6F; break;
        default: mandatory = 0xF3; loadOpc = 0x6F; break;  // movdqu
      }
      const Operand& dst = instr.ops[0];
      const Operand& src = instr.ops[1];
      const bool isLoad = dst.isReg() && isXmm(dst.reg);
      uint8_t storeOpc = static_cast<uint8_t>(
          (loadOpc == 0x6F) ? 0x7F : loadOpc + 1);
      Form f{.mandatory = mandatory,
             .escape0F = true,
             .opcode = isLoad ? loadOpc : storeOpc};
      if (isLoad)
        return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      if (!src.isReg() || !isXmm(src.reg)) return efail(instr, "xmm store src");
      return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Movlpd: case Mnemonic::Movhpd: {
      const uint8_t loadOpc = (mn == Mnemonic::Movlpd) ? 0x12 : 0x16;
      const Operand& dst = instr.ops[0];
      const Operand& src = instr.ops[1];
      if (dst.isReg() && isa::isXmm(dst.reg)) {
        if (!src.isMem()) return efail(instr, "movlpd/movhpd need memory");
        Form f{.mandatory = 0x66, .escape0F = true, .opcode = loadOpc};
        return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      if (!dst.isMem() || !src.isReg())
        return efail(instr, "movlpd/movhpd form");
      Form f{.mandatory = 0x66, .escape0F = true,
             .opcode = static_cast<uint8_t>(loadOpc + 1)};
      return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Movq: case Mnemonic::Movd: {
      const bool isQ = (mn == Mnemonic::Movq);
      const Operand& dst = instr.ops[0];
      const Operand& src = instr.ops[1];
      if (dst.isReg() && isXmm(dst.reg)) {
        if (src.isReg() && isXmm(src.reg)) {  // movq xmm, xmm
          Form f{.mandatory = 0xF3, .escape0F = true, .opcode = 0x7E};
          return emitForm(em, instr, f, regNum(dst.reg), src);
        }
        if (src.isMem() && isQ) {  // movq xmm, m64
          Form f{.mandatory = 0xF3, .escape0F = true, .opcode = 0x7E};
          return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                          ripTarget, instrAddress);
        }
        // movq/movd xmm, r/m (GPR form)
        Form f{.mandatory = 0x66, .escape0F = true, .opcode = 0x6E,
               .rexW = isQ};
        return emitForm(em, instr, f, regNum(dst.reg), src, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      if (!src.isReg() || !isXmm(src.reg)) return efail(instr, "movq form");
      if (dst.isMem() && isQ) {  // movq m64, xmm
        Form f{.mandatory = 0x66, .escape0F = true, .opcode = 0xD6};
        return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                        ripTarget, instrAddress);
      }
      // movq/movd r/m, xmm
      Form f{.mandatory = 0x66, .escape0F = true, .opcode = 0x7E, .rexW = isQ};
      return emitForm(em, instr, f, regNum(src.reg), dst, 0, 0, poolSlot,
                      ripTarget, instrAddress);
    }

    case Mnemonic::Cvtsi2sd: case Mnemonic::Cvtsi2ss: {
      Form f{.mandatory = static_cast<uint8_t>(
                 mn == Mnemonic::Cvtsi2sd ? 0xF2 : 0xF3),
             .escape0F = true,
             .opcode = 0x2A,
             .rexW = instr.srcWidth == 8};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }
    case Mnemonic::Cvttsd2si: case Mnemonic::Cvttss2si: {
      Form f{.mandatory = static_cast<uint8_t>(
                 mn == Mnemonic::Cvttsd2si ? 0xF2 : 0xF3),
             .escape0F = true,
             .opcode = 0x2C,
             .rexW = instr.width == 8};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      0, 0, poolSlot, ripTarget, instrAddress);
    }

    case Mnemonic::Shufpd: case Mnemonic::Shufps: {
      Form f{.mandatory = static_cast<uint8_t>(
                 mn == Mnemonic::Shufpd ? 0x66 : 0x00),
             .escape0F = true,
             .opcode = 0xC6};
      return emitForm(em, instr, f, regNum(instr.ops[0].reg), instr.ops[1],
                      instr.ops[2].imm, 1, poolSlot, ripTarget, instrAddress);
    }

    default:
      return efail(instr, "mnemonic has no encoder");
  }
}

}  // namespace

Status encode(const Instruction& instr, uint64_t instrAddress,
              std::vector<uint8_t>& out, EncodeInfo* info) {
  Emitter em;
  if (Status s = encodeImpl(instr, instrAddress, em); !s) return s;
  out.insert(out.end(), em.buf, em.buf + em.len);
  if (info != nullptr) {
    info->length = em.len;
    info->rel32Offset = em.rel32Offset;
    info->isPoolRef = em.isPoolRef;
    info->poolSlot = em.poolSlot;
    info->imm64Offset = em.imm64Offset;
  }
  return Status::okStatus();
}

}  // namespace brew::isa
