#include "isa/printer.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "isa/decoder.hpp"

namespace brew::isa {

namespace {

const char* ptrSizeName(unsigned width) {
  switch (width) {
    case 1: return "byte ptr ";
    case 2: return "word ptr ";
    case 4: return "dword ptr ";
    case 8: return "qword ptr ";
    case 16: return "xmmword ptr ";
    default: return "";
  }
}

std::string memToString(const MemOperand& m, unsigned width) {
  std::string out = ptrSizeName(width);
  out += '[';
  bool needPlus = false;
  if (m.poolSlot >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "pool+%d", m.poolSlot * 8);
    out += buf;
    needPlus = true;
  } else if (m.ripRelative) {
    out += "rip";
    needPlus = true;
    if (m.ripTarget != 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " -> 0x%" PRIx64,
                    static_cast<uint64_t>(m.ripTarget));
      out += '+';
      out += std::to_string(m.disp);
      out += buf;
      out += ']';
      return out;
    }
  } else if (m.base != Reg::none) {
    out += regName(m.base, 8);
    needPlus = true;
  }
  if (m.index != Reg::none) {
    if (needPlus) out += '+';
    out += regName(m.index, 8);
    if (m.scale != 1) {
      out += '*';
      out += std::to_string(m.scale);
    }
    needPlus = true;
  }
  if (m.disp != 0 || !needPlus) {
    char buf[16];
    if (m.disp < 0)
      std::snprintf(buf, sizeof buf, "-0x%x", -m.disp);
    else
      std::snprintf(buf, sizeof buf, needPlus ? "+0x%x" : "0x%x", m.disp);
    out += buf;
  }
  out += ']';
  return out;
}

}  // namespace

std::string toString(const Operand& op, unsigned widthBytes,
                     const Instruction* context) {
  switch (op.kind) {
    case Operand::Kind::None:
      return "<none>";
    case Operand::Kind::Reg:
      return regName(op.reg, widthBytes);
    case Operand::Kind::Imm: {
      char buf[32];
      // Branch targets print as absolute addresses.
      if (context != nullptr &&
          row(context->mnemonic).family == Family::Branch) {
        std::snprintf(buf, sizeof buf, "0x%" PRIx64,
                      static_cast<uint64_t>(op.imm));
      } else if (op.imm < 0) {
        std::snprintf(buf, sizeof buf, "-0x%" PRIx64,
                      static_cast<uint64_t>(-op.imm));
      } else {
        std::snprintf(buf, sizeof buf, "0x%" PRIx64,
                      static_cast<uint64_t>(op.imm));
      }
      return buf;
    }
    case Operand::Kind::Mem:
      return memToString(op.mem, widthBytes);
  }
  return "?";
}

std::string toString(const Instruction& instr) {
  // A ".form" suffix of the row name is not part of the spelling.
  const char* name = row(instr.mnemonic).name;
  std::string out(name, std::strcspn(name, "."));
  switch (instr.mnemonic) {
    case Mnemonic::Jcc:
    case Mnemonic::Setcc:
    case Mnemonic::Cmovcc:
      out += condName(instr.cond);
      break;
    case Mnemonic::Cdqe:
      if (instr.width != 8) out = instr.width == 4 ? "cwde" : "cbw";
      break;
    case Mnemonic::Cdq:
      if (instr.width != 4) out = instr.width == 8 ? "cqo" : "cwd";
      break;
    default:
      break;
  }
  for (unsigned i = 0; i < instr.nops; ++i) {
    out += (i == 0) ? " " : ", ";
    // Source of extensions/converts uses srcWidth; xmm ignores width anyway.
    unsigned w = instr.width;
    if (i == 1 && instr.srcWidth != 0) w = instr.srcWidth;
    if (instr.ops[i].isReg() && isXmm(instr.ops[i].reg)) w = 16;
    out += toString(instr.ops[i], w, &instr);
  }
  return out;
}

std::string disassemble(std::span<const uint8_t> bytes, uint64_t address,
                        size_t maxInstructions) {
  std::string out;
  size_t offset = 0;
  char buf[32];
  for (size_t n = 0; n < maxInstructions && offset < bytes.size(); ++n) {
    auto instr = decodeOne(bytes.subspan(offset), address + offset);
    std::snprintf(buf, sizeof buf, "%6" PRIx64 ":  ", address + offset);
    out += buf;
    if (!instr) {
      out += "(undecodable: ";
      out += instr.error().detail;
      out += ")\n";
      break;
    }
    out += toString(*instr);
    out += '\n';
    offset += instr->length;
    if (instr->mnemonic == Mnemonic::Ret) break;  // stop at function end
  }
  return out;
}

}  // namespace brew::isa
