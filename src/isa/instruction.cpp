#include "isa/instruction.hpp"

namespace brew::isa {

const char* condName(Cond c) noexcept {
  switch (c) {
    case Cond::O: return "o";
    case Cond::NO: return "no";
    case Cond::B: return "b";
    case Cond::AE: return "ae";
    case Cond::E: return "e";
    case Cond::NE: return "ne";
    case Cond::BE: return "be";
    case Cond::A: return "a";
    case Cond::S: return "s";
    case Cond::NS: return "ns";
    case Cond::P: return "p";
    case Cond::NP: return "np";
    case Cond::L: return "l";
    case Cond::GE: return "ge";
    case Cond::LE: return "le";
    case Cond::G: return "g";
  }
  return "?";
}

Instruction makeInstr(Mnemonic m, uint8_t width) {
  Instruction instr;
  instr.mnemonic = m;
  instr.width = width;
  return instr;
}
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a) {
  Instruction instr = makeInstr(m, width);
  instr.setOps(a);
  return instr;
}
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a, Operand b) {
  Instruction instr = makeInstr(m, width);
  instr.setOps(a, b);
  return instr;
}
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a, Operand b,
                      Operand c) {
  Instruction instr = makeInstr(m, width);
  instr.setOps(a, b, c);
  return instr;
}

uint8_t condFlagsRead(Cond c) noexcept {
  switch (c) {
    case Cond::O: case Cond::NO: return kFlagOF;
    case Cond::B: case Cond::AE: return kFlagCF;
    case Cond::E: case Cond::NE: return kFlagZF;
    case Cond::BE: case Cond::A: return kFlagCF | kFlagZF;
    case Cond::S: case Cond::NS: return kFlagSF;
    case Cond::P: case Cond::NP: return kFlagPF;
    case Cond::L: case Cond::GE: return kFlagSF | kFlagOF;
    case Cond::LE: case Cond::G: return kFlagSF | kFlagOF | kFlagZF;
  }
  return 0;
}

namespace {

uint32_t memRegs(const MemOperand& m) noexcept {
  uint32_t mask = 0;
  if (m.base != Reg::none && m.base != Reg::rip) mask |= regBit(m.base);
  if (m.index != Reg::none) mask |= regBit(m.index);
  return mask;
}

}  // namespace

bool writesMemory(const Instruction& instr) noexcept {
  const MnemonicInfo& r = row(instr.mnemonic);
  return r.has(kPushes) ||
         (r.writesOp0() && instr.nops > 0 && instr.ops[0].isMem());
}

uint32_t regsWritten(const Instruction& instr) noexcept {
  const MnemonicInfo& r = row(instr.mnemonic);
  uint32_t mask = r.implicitWrites;
  if (r.writesOp0() && instr.nops > 0 && instr.ops[0].isReg())
    mask |= regBit(instr.ops[0].reg);
  return mask;
}

uint32_t regsRead(const Instruction& instr) noexcept {
  const MnemonicInfo& r = row(instr.mnemonic);
  uint32_t mask = r.implicitReads;
  if (r.has(kCountInCl) && instr.nops > 1 && instr.ops[1].isReg())
    mask |= regBit(Reg::rcx);
  // ops[0] is read when it is a source, is read-modify-write, or is
  // written only in part (a 1- or 2-byte write keeps the rest).
  const bool op0Read =
      !r.writesOp0() || r.has(kReadsDst) || instr.width < 4;
  for (unsigned i = 0; i < instr.nops; ++i) {
    const Operand& op = instr.ops[i];
    if (op.isMem())
      mask |= memRegs(op.mem);
    else if (op.isReg() && (i > 0 || op0Read))
      mask |= regBit(op.reg);
  }
  return mask;
}

}  // namespace brew::isa
