#include "jit/assembler.hpp"

#include <cstring>

#include "support/telemetry.hpp"

namespace brew::jit {

using isa::Cond;
using isa::Instruction;
using isa::makeInstr;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

Label Assembler::newLabel() {
  labelOffsets_.push_back(-1);
  return Label(static_cast<uint32_t>(labelOffsets_.size() - 1));
}

void Assembler::bind(Label label) {
  if (label.id_ >= labelOffsets_.size()) {
    fail(Error{ErrorCode::InvalidArgument, 0, "bind of invalid label"});
    return;
  }
  labelOffsets_[label.id_] = static_cast<int64_t>(bytes_.size());
}

void Assembler::emit(const Instruction& instr) {
  if (!status_.ok()) return;
  if (Status s = isa::encode(instr, bytes_.size(), bytes_); !s) fail(s.error());
}

void Assembler::emitBytes(std::span<const uint8_t> bytes) {
  if (!status_.ok()) return;
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

namespace {
Instruction branchInstr(Mnemonic mn, Cond cond = Cond::O) {
  Instruction instr = makeInstr(mn, 8, Operand::makeImm(0));
  instr.cond = cond;
  return instr;
}
}  // namespace

void Assembler::jmp(Label target) {
  if (!status_.ok()) return;
  const uint32_t start = currentOffset();
  isa::EncodeInfo info;
  if (Status s = isa::encode(branchInstr(Mnemonic::Jmp), 0, bytes_, &info);
      !s) {
    fail(s.error());
    return;
  }
  fixups_.push_back({start + static_cast<uint32_t>(info.rel32Offset),
                     target.id_});
}

void Assembler::jcc(Cond cond, Label target) {
  if (!status_.ok()) return;
  const uint32_t start = currentOffset();
  isa::EncodeInfo info;
  if (Status s =
          isa::encode(branchInstr(Mnemonic::Jcc, cond), 0, bytes_, &info);
      !s) {
    fail(s.error());
    return;
  }
  fixups_.push_back({start + static_cast<uint32_t>(info.rel32Offset),
                     target.id_});
}

void Assembler::call(Label target) {
  if (!status_.ok()) return;
  const uint32_t start = currentOffset();
  isa::EncodeInfo info;
  if (Status s = isa::encode(branchInstr(Mnemonic::Call), 0, bytes_, &info);
      !s) {
    fail(s.error());
    return;
  }
  fixups_.push_back({start + static_cast<uint32_t>(info.rel32Offset),
                     target.id_});
}

// An absolute call uses `movabs r11, target; call r11`, so the bytes stay
// position independent wherever the buffer is mapped. r11 is a
// caller-saved scratch register that carries no value across call or
// function boundaries per the System V ABI, so clobbering it at a call is
// always safe.
void Assembler::callAbs(uint64_t target) {
  movRegImm(Reg::r11, static_cast<int64_t>(target), 8);
  emit(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)));
}

void Assembler::movRegImm(Reg dst, int64_t imm, uint8_t width) {
  emit(makeInstr(Mnemonic::Mov, width, Operand::makeReg(dst),
                 Operand::makeImm(imm)));
}
void Assembler::movRegReg(Reg dst, Reg src, uint8_t width) {
  emit(makeInstr(Mnemonic::Mov, width, Operand::makeReg(dst),
                 Operand::makeReg(src)));
}
void Assembler::movRegMem(Reg dst, isa::MemOperand mem, uint8_t width) {
  emit(makeInstr(Mnemonic::Mov, width, Operand::makeReg(dst),
                 Operand::makeMem(mem)));
}
void Assembler::movMemReg(isa::MemOperand mem, Reg src, uint8_t width) {
  emit(makeInstr(Mnemonic::Mov, width, Operand::makeMem(mem),
                 Operand::makeReg(src)));
}
void Assembler::aluRegReg(Mnemonic mn, Reg dst, Reg src, uint8_t width) {
  emit(makeInstr(mn, width, Operand::makeReg(dst), Operand::makeReg(src)));
}
void Assembler::aluRegImm(Mnemonic mn, Reg dst, int64_t imm, uint8_t width) {
  emit(makeInstr(mn, width, Operand::makeReg(dst), Operand::makeImm(imm)));
}
void Assembler::ret() { emit(makeInstr(Mnemonic::Ret, 8)); }

Result<std::vector<uint8_t>> Assembler::finalizeBytes() {
  if (!status_.ok()) return status_.error();
  for (const Fixup& fixup : fixups_) {
    if (fixup.labelId >= labelOffsets_.size() ||
        labelOffsets_[fixup.labelId] < 0)
      return Error{ErrorCode::InvalidArgument, 0, "unbound label"};
    const int64_t rel = labelOffsets_[fixup.labelId] -
                        (static_cast<int64_t>(fixup.fieldOffset) + 4);
    const auto rel32 = static_cast<int32_t>(rel);
    std::memcpy(bytes_.data() + fixup.fieldOffset, &rel32, 4);
  }
  return bytes_;
}

Result<ExecMemory> Assembler::finalizeExecutable(uint64_t hint) {
  auto bytes = finalizeBytes();
  if (!bytes) return bytes.error();
  auto mem = ExecMemory::allocate(bytes->size(),
                                  reinterpret_cast<const void*>(hint));
  if (!mem) return mem.error();
  std::memcpy(mem->writeView(), bytes->data(), bytes->size());
  if (Status s = mem->finalize(); !s) return s.error();
  telemetry::counter(telemetry::CounterId::JitStubsFinalized).add();
  telemetry::counter(telemetry::CounterId::JitStubBytes).add(bytes->size());
  return std::move(*mem);
}

}  // namespace brew::jit
