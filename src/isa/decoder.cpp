#include "isa/decoder.hpp"

#include <cstring>

namespace brew::isa {

namespace {

constexpr size_t kMaxInstructionLength = 15;

// Cursor over the instruction bytes with bounds checking.
struct Cursor {
  const uint8_t* p;
  size_t avail;
  size_t pos = 0;
  bool overrun = false;

  uint8_t peek() {
    if (pos >= avail) {
      overrun = true;
      return 0;
    }
    return p[pos];
  }
  uint8_t u8() {
    const uint8_t b = peek();
    ++pos;
    return b;
  }
  uint16_t u16() {
    uint16_t v = u8();
    v |= static_cast<uint16_t>(u8()) << 8;
    return v;
  }
  uint32_t u32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(u8()) << (8 * i);
    return v;
  }
  uint64_t u64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(u8()) << (8 * i);
    return v;
  }
  int8_t s8() { return static_cast<int8_t>(u8()); }
  int32_t s32() { return static_cast<int32_t>(u32()); }
};

struct Prefixes {
  bool opSize = false;   // 66
  bool repF3 = false;    // F3
  bool repF2 = false;    // F2
  bool rex = false;
  bool rexW = false;
  uint8_t rexR = 0, rexX = 0, rexB = 0;
  bool segment = false;  // any segment override (only tolerated on NOPs)
};

struct ModRM {
  uint8_t mod, reg, rm;
};

// SSE mandatory prefix, as an index into SseForms.
enum class SsePfx : uint8_t { None, P66, PF3, PF2 };

// The `op xmm, xmm/m` forms by 0F opcode and mandatory prefix, built from
// the encoding column of the instruction table.
struct SseForms {
  Mnemonic byOpcode[256][4] = {};
  constexpr SseForms() {
    for (size_t m = 0; m < static_cast<size_t>(Mnemonic::Count_); ++m) {
      const Encoding& e = row(static_cast<Mnemonic>(m)).enc;
      if (e.kind != Encoding::Kind::Sse) continue;
      const SsePfx p = e.prefix == 0x66   ? SsePfx::P66
                       : e.prefix == 0xF3 ? SsePfx::PF3
                       : e.prefix == 0xF2 ? SsePfx::PF2
                                          : SsePfx::None;
      byOpcode[e.opcode][static_cast<size_t>(p)] = static_cast<Mnemonic>(m);
    }
  }
};
constexpr SseForms kSseForms;

Error fail(uint64_t address, const char* what) {
  return Error{ErrorCode::UndecodableInstruction, address, what};
}

// Decodes ModRM (+SIB +disp) into either a register or memory operand for
// the r/m side, and returns the `reg` field number (with REX.R applied).
struct DecodedModRM {
  Operand rm;       // Reg or Mem operand
  uint8_t regNum;   // modrm.reg | REX.R << 3
  bool isRegForm;   // mod == 3
};

Result<DecodedModRM> decodeModRM(Cursor& cur, const Prefixes& pfx,
                                 uint64_t address, bool rmIsXmm) {
  const uint8_t modrm = cur.u8();
  ModRM m{static_cast<uint8_t>(modrm >> 6),
          static_cast<uint8_t>((modrm >> 3) & 7),
          static_cast<uint8_t>(modrm & 7)};
  DecodedModRM out;
  out.regNum = static_cast<uint8_t>(m.reg | (pfx.rexR << 3));
  out.isRegForm = (m.mod == 3);

  if (m.mod == 3) {
    const unsigned n = m.rm | (pfx.rexB << 3);
    out.rm = Operand::makeReg(rmIsXmm ? xmmFromNum(n) : gprFromNum(n));
    return out;
  }

  MemOperand mem;
  if (m.rm == 4) {
    // SIB byte
    const uint8_t sib = cur.u8();
    const uint8_t scaleBits = sib >> 6;
    const uint8_t indexBits = static_cast<uint8_t>((sib >> 3) & 7);
    const uint8_t baseBits = sib & 7;
    mem.scale = static_cast<uint8_t>(1u << scaleBits);
    const unsigned indexNum = indexBits | (pfx.rexX << 3);
    if (indexNum != 4)  // index == rsp means "no index" (REX.X extends)
      mem.index = gprFromNum(indexNum);
    else
      mem.scale = 1;
    if (baseBits == 5 && m.mod == 0) {
      mem.base = Reg::none;  // [index*scale + disp32]
      mem.disp = cur.s32();
    } else {
      mem.base = gprFromNum(baseBits | (pfx.rexB << 3));
    }
  } else if (m.rm == 5 && m.mod == 0) {
    mem.ripRelative = true;
    mem.disp = cur.s32();
  } else {
    mem.base = gprFromNum(m.rm | (pfx.rexB << 3));
  }

  if (!mem.ripRelative) {
    if (m.mod == 1)
      mem.disp = cur.s8();
    else if (m.mod == 2)
      mem.disp = cur.s32();
  }
  (void)address;
  out.rm = Operand::makeMem(mem);
  return out;
}

uint8_t gprWidth(const Prefixes& pfx) {
  if (pfx.rexW) return 8;
  if (pfx.opSize) return 2;
  return 4;
}

// Legacy high-byte registers (ah..bh) appear for reg numbers 4..7 when no
// REX prefix is present on byte-width operands; we do not model them.
bool isLegacyHighByte(const Prefixes& pfx, unsigned regNum) {
  return !pfx.rex && regNum >= 4 && regNum < 8;
}

Result<Instruction> decodeImpl(std::span<const uint8_t> bytes,
                               uint64_t address) {
  Cursor cur{bytes.data(), std::min(bytes.size(), kMaxInstructionLength)};
  Prefixes pfx;
  Instruction instr;
  instr.address = address;

  // --- prefixes ---
  for (;;) {
    const uint8_t b = cur.peek();
    if (b == 0x66) {
      pfx.opSize = true;
    } else if (b == 0xF3) {
      pfx.repF3 = true;
    } else if (b == 0xF2) {
      pfx.repF2 = true;
    } else if (b == 0x2E || b == 0x3E || b == 0x26 || b == 0x36 ||
               b == 0x64 || b == 0x65) {
      pfx.segment = true;  // tolerated on NOP padding only
    } else if (b == 0x67) {
      return fail(address, "address-size prefix unsupported");
    } else if (b == 0xF0) {
      return fail(address, "lock prefix unsupported");
    } else {
      break;
    }
    cur.u8();
  }
  {
    const uint8_t b = cur.peek();
    if ((b & 0xF0) == 0x40) {
      pfx.rex = true;
      pfx.rexW = (b >> 3) & 1;
      pfx.rexR = (b >> 2) & 1;
      pfx.rexX = (b >> 1) & 1;
      pfx.rexB = b & 1;
      cur.u8();
    }
  }

  const uint8_t op = cur.u8();
  const uint8_t width = gprWidth(pfx);

  auto finish = [&]() -> Result<Instruction> {
    if (cur.overrun) return fail(address, "truncated instruction");
    if (cur.pos > kMaxInstructionLength)
      return fail(address, "instruction too long");
    if (pfx.segment && instr.mnemonic != Mnemonic::Nop)
      return fail(address, "segment override unsupported");
    instr.length = static_cast<uint8_t>(cur.pos);
    return instr;
  };
  auto branchTarget = [&](int64_t rel) {
    // Relative targets are resolved against the *end* of the instruction,
    // which is only known once all bytes are consumed: call sites below
    // invoke this after the displacement was read, so cur.pos is final.
    return static_cast<int64_t>(address + cur.pos) + rel;
  };

  // ALU group: 00..3B excluding the 0F escape and special rows.
  if (op < 0x40 && (op & 7) < 6 && op != 0x0F) {
    static constexpr Mnemonic kGroup[8] = {
        Mnemonic::Add, Mnemonic::Or, Mnemonic::Adc, Mnemonic::Sbb,
        Mnemonic::And, Mnemonic::Sub, Mnemonic::Xor, Mnemonic::Cmp};
    const Mnemonic mn = kGroup[(op >> 3) & 7];
    const uint8_t form = op & 7;
    if (form == 4 || form == 5) {
      // AL/eAX, imm
      instr.mnemonic = mn;
      instr.width = (form == 4) ? 1 : width;
      const int64_t imm = (form == 4) ? cur.s8()
                          : (width == 2 ? static_cast<int16_t>(cur.u16())
                                        : cur.s32());
      instr.setOps(Operand::makeReg(Reg::rax), Operand::makeImm(imm));
      return finish();
    }
    const bool byteOp = (form == 0 || form == 2);
    const bool regIsDest = (form == 2 || form == 3);
    auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/false);
    if (!mrm) return mrm.error();
    instr.mnemonic = mn;
    instr.width = byteOp ? 1 : width;
    if (byteOp) {
      if (mrm->isRegForm && isLegacyHighByte(pfx, regNum(mrm->rm.reg)))
        return fail(address, "legacy high-byte register");
      if (isLegacyHighByte(pfx, mrm->regNum))
        return fail(address, "legacy high-byte register");
    }
    const Operand regOp = Operand::makeReg(gprFromNum(mrm->regNum));
    if (regIsDest)
      instr.setOps(regOp, mrm->rm);
    else
      instr.setOps(mrm->rm, regOp);
    return finish();
  }

  switch (op) {
    // --- push/pop r64 ---
    case 0x50: case 0x51: case 0x52: case 0x53:
    case 0x54: case 0x55: case 0x56: case 0x57:
      instr.mnemonic = Mnemonic::Push;
      instr.width = 8;
      instr.setOps(Operand::makeReg(gprFromNum((op - 0x50) | (pfx.rexB << 3))));
      return finish();
    case 0x58: case 0x59: case 0x5A: case 0x5B:
    case 0x5C: case 0x5D: case 0x5E: case 0x5F:
      instr.mnemonic = Mnemonic::Pop;
      instr.width = 8;
      instr.setOps(Operand::makeReg(gprFromNum((op - 0x58) | (pfx.rexB << 3))));
      return finish();

    case 0x63: {  // movsxd r64, r/m32
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      instr.mnemonic = Mnemonic::Movsxd;
      instr.width = pfx.rexW ? 8 : 4;
      instr.srcWidth = 4;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }

    case 0x68:  // push imm32
      instr.mnemonic = Mnemonic::Push;
      instr.width = 8;
      instr.setOps(Operand::makeImm(cur.s32()));
      return finish();
    case 0x6A:  // push imm8
      instr.mnemonic = Mnemonic::Push;
      instr.width = 8;
      instr.setOps(Operand::makeImm(cur.s8()));
      return finish();

    case 0x69: case 0x6B: {  // imul r, r/m, imm
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      const int64_t imm = (op == 0x6B) ? cur.s8()
                          : (width == 2 ? static_cast<int16_t>(cur.u16())
                                        : cur.s32());
      instr.mnemonic = Mnemonic::Imul;
      instr.width = width;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm,
                   Operand::makeImm(imm));
      return finish();
    }

    // --- jcc rel8 ---
    case 0x70: case 0x71: case 0x72: case 0x73:
    case 0x74: case 0x75: case 0x76: case 0x77:
    case 0x78: case 0x79: case 0x7A: case 0x7B:
    case 0x7C: case 0x7D: case 0x7E: case 0x7F: {
      const int64_t rel = cur.s8();
      instr.mnemonic = Mnemonic::Jcc;
      instr.cond = static_cast<Cond>(op - 0x70);
      instr.setOps(Operand::makeImm(branchTarget(rel)));
      return finish();
    }

    case 0x80: case 0x81: case 0x83: {  // grp1 r/m, imm
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      static constexpr Mnemonic kGroup[8] = {
          Mnemonic::Add, Mnemonic::Or, Mnemonic::Adc, Mnemonic::Sbb,
          Mnemonic::And, Mnemonic::Sub, Mnemonic::Xor, Mnemonic::Cmp};
      const uint8_t ext = mrm->regNum & 7;
      instr.mnemonic = kGroup[ext];
      instr.width = (op == 0x80) ? 1 : width;
      int64_t imm;
      if (op == 0x81)
        imm = (width == 2) ? static_cast<int16_t>(cur.u16()) : cur.s32();
      else
        imm = cur.s8();
      if (instr.width == 1 && mrm->isRegForm &&
          isLegacyHighByte(pfx, regNum(mrm->rm.reg)))
        return fail(address, "legacy high-byte register");
      instr.setOps(mrm->rm, Operand::makeImm(imm));
      return finish();
    }

    case 0x84: case 0x85: {  // test r/m, r
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      instr.mnemonic = Mnemonic::Test;
      instr.width = (op == 0x84) ? 1 : width;
      if (instr.width == 1 &&
          (isLegacyHighByte(pfx, mrm->regNum) ||
           (mrm->isRegForm && isLegacyHighByte(pfx, regNum(mrm->rm.reg)))))
        return fail(address, "legacy high-byte register");
      instr.setOps(mrm->rm, Operand::makeReg(gprFromNum(mrm->regNum)));
      return finish();
    }

    case 0x88: case 0x89: case 0x8A: case 0x8B: {  // mov
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      const bool byteOp = (op == 0x88 || op == 0x8A);
      const bool regIsDest = (op == 0x8A || op == 0x8B);
      instr.mnemonic = Mnemonic::Mov;
      instr.width = byteOp ? 1 : width;
      if (byteOp && (isLegacyHighByte(pfx, mrm->regNum) ||
                     (mrm->isRegForm &&
                      isLegacyHighByte(pfx, regNum(mrm->rm.reg)))))
        return fail(address, "legacy high-byte register");
      const Operand regOp = Operand::makeReg(gprFromNum(mrm->regNum));
      if (regIsDest)
        instr.setOps(regOp, mrm->rm);
      else
        instr.setOps(mrm->rm, regOp);
      return finish();
    }

    case 0x8D: {  // lea
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      if (!mrm->rm.isMem()) return fail(address, "lea with register source");
      instr.mnemonic = Mnemonic::Lea;
      instr.width = width;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }

    case 0x90:
      instr.mnemonic = Mnemonic::Nop;  // also F3 90 (pause)
      return finish();

    case 0x9C:
      instr.mnemonic = Mnemonic::Pushfq;
      return finish();
    case 0x9D:
      instr.mnemonic = Mnemonic::Popfq;
      return finish();

    case 0x98: case 0x99:  // cdqe/cwde/cbw, cqo/cdq/cwd
      instr.mnemonic = (op == 0x98) ? Mnemonic::Cdqe : Mnemonic::Cdq;
      instr.width = width;
      return finish();

    case 0xA8: case 0xA9: {  // test al/eAX, imm
      instr.mnemonic = Mnemonic::Test;
      instr.width = (op == 0xA8) ? 1 : width;
      const int64_t imm = (op == 0xA8) ? cur.s8()
                          : (width == 2 ? static_cast<int16_t>(cur.u16())
                                        : cur.s32());
      instr.setOps(Operand::makeReg(Reg::rax), Operand::makeImm(imm));
      return finish();
    }

    case 0xB0: case 0xB1: case 0xB2: case 0xB3:
    case 0xB4: case 0xB5: case 0xB6: case 0xB7: {  // mov r8, imm8
      const unsigned n = (op - 0xB0) | (pfx.rexB << 3);
      if (isLegacyHighByte(pfx, n))
        return fail(address, "legacy high-byte register");
      instr.mnemonic = Mnemonic::Mov;
      instr.width = 1;
      instr.setOps(Operand::makeReg(gprFromNum(n)), Operand::makeImm(cur.s8()));
      return finish();
    }
    case 0xB8: case 0xB9: case 0xBA: case 0xBB:
    case 0xBC: case 0xBD: case 0xBE: case 0xBF: {  // mov r, imm32/imm64
      const unsigned n = (op - 0xB8) | (pfx.rexB << 3);
      instr.mnemonic = Mnemonic::Mov;
      instr.width = width;
      int64_t imm;
      if (pfx.rexW)
        imm = static_cast<int64_t>(cur.u64());
      else if (width == 2)
        imm = static_cast<int16_t>(cur.u16());
      else
        imm = static_cast<int64_t>(static_cast<uint64_t>(cur.u32()));
      // 32-bit mov zero-extends: keep the unsigned value for width 4.
      instr.setOps(Operand::makeReg(gprFromNum(n)), Operand::makeImm(imm));
      return finish();
    }

    case 0xC0: case 0xC1:
    case 0xD0: case 0xD1: case 0xD2: case 0xD3: {  // shift group
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      static constexpr Mnemonic kGroup[8] = {
          Mnemonic::Rol, Mnemonic::Ror, Mnemonic::Invalid, Mnemonic::Invalid,
          Mnemonic::Shl, Mnemonic::Shr, Mnemonic::Invalid, Mnemonic::Sar};
      const Mnemonic mn = kGroup[mrm->regNum & 7];
      if (mn == Mnemonic::Invalid) return fail(address, "rcl/rcr unsupported");
      instr.mnemonic = mn;
      instr.width = (op == 0xC0 || op == 0xD0 || op == 0xD2) ? 1 : width;
      Operand count;
      if (op == 0xC0 || op == 0xC1)
        count = Operand::makeImm(cur.u8());
      else if (op == 0xD0 || op == 0xD1)
        count = Operand::makeImm(1);
      else
        count = Operand::makeReg(Reg::rcx);  // CL
      instr.setOps(mrm->rm, count);
      return finish();
    }

    case 0xC2:  // ret imm16
      instr.mnemonic = Mnemonic::Ret;
      instr.setOps(Operand::makeImm(cur.u16()));
      return finish();
    case 0xC3:
      instr.mnemonic = Mnemonic::Ret;
      return finish();

    case 0xC6: case 0xC7: {  // mov r/m, imm
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      if ((mrm->regNum & 7) != 0) return fail(address, "xabort/unknown C6/C7");
      instr.mnemonic = Mnemonic::Mov;
      instr.width = (op == 0xC6) ? 1 : width;
      const int64_t imm = (op == 0xC6) ? cur.s8()
                          : (width == 2 ? static_cast<int16_t>(cur.u16())
                                        : cur.s32());
      instr.setOps(mrm->rm, Operand::makeImm(imm));
      return finish();
    }

    case 0xC9:
      instr.mnemonic = Mnemonic::Leave;
      return finish();
    case 0xCC:
      instr.mnemonic = Mnemonic::Int3;
      return finish();

    case 0xE8: {
      const int64_t rel = cur.s32();
      instr.mnemonic = Mnemonic::Call;
      instr.setOps(Operand::makeImm(branchTarget(rel)));
      return finish();
    }
    case 0xE9: {
      const int64_t rel = cur.s32();
      instr.mnemonic = Mnemonic::Jmp;
      instr.setOps(Operand::makeImm(branchTarget(rel)));
      return finish();
    }
    case 0xEB: {
      const int64_t rel = cur.s8();
      instr.mnemonic = Mnemonic::Jmp;
      instr.setOps(Operand::makeImm(branchTarget(rel)));
      return finish();
    }

    case 0xF6: case 0xF7: {  // grp3
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      const uint8_t ext = mrm->regNum & 7;
      const uint8_t w = (op == 0xF6) ? 1 : width;
      switch (ext) {
        case 0: case 1: {  // test r/m, imm
          instr.mnemonic = Mnemonic::Test;
          instr.width = w;
          const int64_t imm = (w == 1) ? cur.s8()
                              : (w == 2 ? static_cast<int16_t>(cur.u16())
                                        : cur.s32());
          instr.setOps(mrm->rm, Operand::makeImm(imm));
          return finish();
        }
        case 2:
          instr.mnemonic = Mnemonic::Not;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 3:
          instr.mnemonic = Mnemonic::Neg;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 4:
          instr.mnemonic = Mnemonic::MulWide;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 5:
          instr.mnemonic = Mnemonic::ImulWide;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 6:
          instr.mnemonic = Mnemonic::Div;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 7:
          instr.mnemonic = Mnemonic::Idiv;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
      }
      return fail(address, "grp3");
    }

    case 0xFE: case 0xFF: {
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      const uint8_t ext = mrm->regNum & 7;
      const uint8_t w = (op == 0xFE) ? 1 : width;
      switch (ext) {
        case 0:
          instr.mnemonic = Mnemonic::Inc;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 1:
          instr.mnemonic = Mnemonic::Dec;
          instr.width = w;
          instr.setOps(mrm->rm);
          return finish();
        case 2:
          if (op == 0xFE) return fail(address, "FE /2");
          instr.mnemonic = Mnemonic::CallInd;
          instr.width = 8;
          instr.setOps(mrm->rm);
          return finish();
        case 4:
          if (op == 0xFE) return fail(address, "FE /4");
          instr.mnemonic = Mnemonic::JmpInd;
          instr.width = 8;
          instr.setOps(mrm->rm);
          return finish();
        case 6:
          if (op == 0xFE) return fail(address, "FE /6");
          instr.mnemonic = Mnemonic::Push;
          instr.width = 8;
          instr.setOps(mrm->rm);
          return finish();
        default:
          return fail(address, "FE/FF group");
      }
    }

    case 0x0F:
      break;  // two-byte opcodes handled below

    default:
      return fail(address, "one-byte opcode not in subset");
  }

  // --- 0F two-byte opcodes ---
  const uint8_t op2 = cur.u8();

  // SSE op selection by mandatory prefix.
  const SsePfx sse = pfx.repF2   ? SsePfx::PF2
                     : pfx.repF3 ? SsePfx::PF3
                     : pfx.opSize ? SsePfx::P66
                                  : SsePfx::None;

  auto xmmRM = [&](Mnemonic mn, uint8_t w,
                   bool regIsDest = true) -> Result<Instruction> {
    auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/true);
    if (!mrm) return mrm.error();
    instr.mnemonic = mn;
    instr.width = w;
    const Operand regOp = Operand::makeReg(xmmFromNum(mrm->regNum));
    if (regIsDest)
      instr.setOps(regOp, mrm->rm);
    else
      instr.setOps(mrm->rm, regOp);
    return finish();
  };

  if (const Mnemonic mn = kSseForms.byOpcode[op2][static_cast<size_t>(sse)];
      mn != Mnemonic::Invalid)
    return xmmRM(mn, row(mn).enc.arg);

  switch (op2) {
    case 0x0B:
      instr.mnemonic = Mnemonic::Ud2;
      return finish();

    case 0x10: case 0x11: {  // movups/movss/movupd/movsd
      Mnemonic mn;
      uint8_t w;
      switch (sse) {
        case SsePfx::None: mn = Mnemonic::Movups; w = 16; break;
        case SsePfx::P66: mn = Mnemonic::Movupd; w = 16; break;
        case SsePfx::PF3: mn = Mnemonic::Movss; w = 4; break;
        case SsePfx::PF2: mn = Mnemonic::Movsd; w = 8; break;
      }
      return xmmRM(mn, w, /*regIsDest=*/op2 == 0x10);
    }

    case 0x12: case 0x13:
      if (sse == SsePfx::P66)
        return xmmRM(Mnemonic::Movlpd, 8, /*regIsDest=*/op2 == 0x12);
      return fail(address, "movlps unsupported");
    case 0x16: case 0x17:
      if (sse == SsePfx::P66)
        return xmmRM(Mnemonic::Movhpd, 8, /*regIsDest=*/op2 == 0x16);
      return fail(address, "movhps unsupported");

    case 0x1E:
      if (sse == SsePfx::PF3 && cur.peek() == 0xFA) {
        cur.u8();
        instr.mnemonic = Mnemonic::Endbr64;
        return finish();
      }
      return fail(address, "0F 1E");

    case 0x1F: {  // multi-byte nop with ModRM
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      instr.mnemonic = Mnemonic::Nop;
      return finish();
    }

    case 0x28: case 0x29: {  // movaps/movapd
      const Mnemonic mn =
          (sse == SsePfx::P66) ? Mnemonic::Movapd : Mnemonic::Movaps;
      if (sse == SsePfx::PF2 || sse == SsePfx::PF3)
        return fail(address, "0F 28 with rep prefix");
      return xmmRM(mn, 16, /*regIsDest=*/op2 == 0x28);
    }

    case 0x2A:  // cvtsi2ss/sd xmm, r/m
      if (sse == SsePfx::PF2 || sse == SsePfx::PF3) {
        auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/false);
        if (!mrm) return mrm.error();
        instr.mnemonic = (sse == SsePfx::PF2) ? Mnemonic::Cvtsi2sd
                                              : Mnemonic::Cvtsi2ss;
        instr.width = (sse == SsePfx::PF2) ? 8 : 4;
        instr.srcWidth = pfx.rexW ? 8 : 4;
        instr.setOps(Operand::makeReg(xmmFromNum(mrm->regNum)), mrm->rm);
        return finish();
      }
      return fail(address, "cvtpi2ps unsupported");

    case 0x2C:  // cvttss2si / cvttsd2si r, xmm/m
      if (sse == SsePfx::PF2 || sse == SsePfx::PF3) {
        auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/true);
        if (!mrm) return mrm.error();
        instr.mnemonic = (sse == SsePfx::PF2) ? Mnemonic::Cvttsd2si
                                              : Mnemonic::Cvttss2si;
        instr.width = pfx.rexW ? 8 : 4;
        instr.srcWidth = (sse == SsePfx::PF2) ? 8 : 4;
        instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
        return finish();
      }
      return fail(address, "cvttps2pi unsupported");

    // cmovcc
    case 0x40: case 0x41: case 0x42: case 0x43:
    case 0x44: case 0x45: case 0x46: case 0x47:
    case 0x48: case 0x49: case 0x4A: case 0x4B:
    case 0x4C: case 0x4D: case 0x4E: case 0x4F: {
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      instr.mnemonic = Mnemonic::Cmovcc;
      instr.cond = static_cast<Cond>(op2 - 0x40);
      instr.width = width;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }

    case 0x6E: {  // movd/movq xmm, r/m
      if (sse != SsePfx::P66) return fail(address, "0F 6E without 66");
      auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/false);
      if (!mrm) return mrm.error();
      instr.mnemonic = pfx.rexW ? Mnemonic::Movq : Mnemonic::Movd;
      instr.width = pfx.rexW ? 8 : 4;
      instr.setOps(Operand::makeReg(xmmFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }
    case 0x7E: {
      if (sse == SsePfx::PF3)  // movq xmm, xmm/m64 (load form)
        return xmmRM(Mnemonic::Movq, 8);
      if (sse == SsePfx::P66) {  // movd/movq r/m, xmm (store form)
        auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/false);
        if (!mrm) return mrm.error();
        instr.mnemonic = pfx.rexW ? Mnemonic::Movq : Mnemonic::Movd;
        instr.width = pfx.rexW ? 8 : 4;
        instr.setOps(mrm->rm, Operand::makeReg(xmmFromNum(mrm->regNum)));
        return finish();
      }
      return fail(address, "0F 7E form");
    }
    case 0xD6: {  // movq xmm/m64, xmm (store form)
      if (sse != SsePfx::P66) return fail(address, "0F D6 without 66");
      return xmmRM(Mnemonic::Movq, 8, /*regIsDest=*/false);
    }

    case 0x6F: case 0x7F: {  // movdqa/movdqu
      Mnemonic mn;
      if (sse == SsePfx::P66)
        mn = Mnemonic::Movdqa;
      else if (sse == SsePfx::PF3)
        mn = Mnemonic::Movdqu;
      else
        return fail(address, "mmx movq unsupported");
      return xmmRM(mn, 16, /*regIsDest=*/op2 == 0x6F);
    }

    // jcc rel32
    case 0x80: case 0x81: case 0x82: case 0x83:
    case 0x84: case 0x85: case 0x86: case 0x87:
    case 0x88: case 0x89: case 0x8A: case 0x8B:
    case 0x8C: case 0x8D: case 0x8E: case 0x8F: {
      const int64_t rel = cur.s32();
      instr.mnemonic = Mnemonic::Jcc;
      instr.cond = static_cast<Cond>(op2 - 0x80);
      instr.setOps(Operand::makeImm(branchTarget(rel)));
      return finish();
    }

    // setcc r/m8
    case 0x90: case 0x91: case 0x92: case 0x93:
    case 0x94: case 0x95: case 0x96: case 0x97:
    case 0x98: case 0x99: case 0x9A: case 0x9B:
    case 0x9C: case 0x9D: case 0x9E: case 0x9F: {
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      if (mrm->isRegForm && isLegacyHighByte(pfx, regNum(mrm->rm.reg)))
        return fail(address, "legacy high-byte register");
      instr.mnemonic = Mnemonic::Setcc;
      instr.cond = static_cast<Cond>(op2 - 0x90);
      instr.width = 1;
      instr.setOps(mrm->rm);
      return finish();
    }

    case 0xAF: {  // imul r, r/m
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      instr.mnemonic = Mnemonic::Imul;
      instr.width = width;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }

    case 0xB6: case 0xB7: case 0xBE: case 0xBF: {  // movzx / movsx
      auto mrm = decodeModRM(cur, pfx, address, false);
      if (!mrm) return mrm.error();
      const bool sign = (op2 == 0xBE || op2 == 0xBF);
      const uint8_t srcW = (op2 == 0xB6 || op2 == 0xBE) ? 1 : 2;
      if (srcW == 1 && mrm->isRegForm &&
          isLegacyHighByte(pfx, regNum(mrm->rm.reg)))
        return fail(address, "legacy high-byte register");
      instr.mnemonic = sign ? Mnemonic::Movsx : Mnemonic::Movzx;
      instr.width = width;
      instr.srcWidth = srcW;
      instr.setOps(Operand::makeReg(gprFromNum(mrm->regNum)), mrm->rm);
      return finish();
    }

    case 0xC6: {  // shufpd/shufps xmm, xmm/m, imm8
      if (sse != SsePfx::P66 && sse != SsePfx::None)
        return fail(address, "0F C6 with rep prefix");
      auto mrm = decodeModRM(cur, pfx, address, /*rmIsXmm=*/true);
      if (!mrm) return mrm.error();
      const int64_t imm = cur.u8();
      instr.mnemonic =
          (sse == SsePfx::P66) ? Mnemonic::Shufpd : Mnemonic::Shufps;
      instr.width = 16;
      instr.setOps(Operand::makeReg(xmmFromNum(mrm->regNum)), mrm->rm,
                   Operand::makeImm(imm));
      return finish();
    }

    default:
      return fail(address, "two-byte opcode not in subset");
  }
}

}  // namespace

Result<Instruction> decodeOne(std::span<const uint8_t> bytes,
                              uint64_t address) {
  if (bytes.empty())
    return Error{ErrorCode::UndecodableInstruction, address, "empty input"};
  return decodeImpl(bytes, address);
}

Result<Instruction> decodeAt(uint64_t address) {
  const auto* p = reinterpret_cast<const uint8_t*>(address);
  return decodeImpl({p, kMaxInstructionLength}, address);
}

}  // namespace brew::isa
