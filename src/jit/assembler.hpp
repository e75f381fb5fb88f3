// Runtime assembler over the isa encoder.
//
// Two client groups:
//  - tests build deterministic input functions out of known instructions
//    (so the tracer is exercised independently of what a compiler emits),
//  - the rewriter backend emits the final generated function.
//
// Labels support forward references; all label branches use rel32 so the
// two-pass size problem does not arise.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/encoder.hpp"
#include "isa/instruction.hpp"
#include "support/error.hpp"
#include "support/exec_memory.hpp"

namespace brew::jit {

class Label {
 public:
  Label() = default;

 private:
  friend class Assembler;
  explicit Label(uint32_t id) : id_(id) {}
  uint32_t id_ = UINT32_MAX;
};

class Assembler {
 public:
  Assembler() = default;

  Label newLabel();
  void bind(Label label);

  // Appends an encoded instruction. Errors are sticky: the first failure is
  // reported by status()/finalize() and later emits become no-ops.
  void emit(const isa::Instruction& instr);

  // Raw bytes (e.g. copying an existing encoding verbatim).
  void emitBytes(std::span<const uint8_t> bytes);

  // Branches to labels (rel32, patched on finalize).
  void jmp(Label target);
  void jcc(isa::Cond cond, Label target);
  void call(Label target);

  // Call to an absolute address outside this buffer, through
  // `movabs r11, target` (position independent; clobbers r11).
  void callAbs(uint64_t target);

  // --- convenience wrappers used heavily in tests ---
  void movRegImm(isa::Reg dst, int64_t imm, uint8_t width = 8);
  void movRegReg(isa::Reg dst, isa::Reg src, uint8_t width = 8);
  void movRegMem(isa::Reg dst, isa::MemOperand mem, uint8_t width = 8);
  void movMemReg(isa::MemOperand mem, isa::Reg src, uint8_t width = 8);
  void aluRegReg(isa::Mnemonic mn, isa::Reg dst, isa::Reg src,
                 uint8_t width = 8);
  void aluRegImm(isa::Mnemonic mn, isa::Reg dst, int64_t imm,
                 uint8_t width = 8);
  void ret();

  Status status() const { return status_; }
  size_t size() const { return bytes_.size(); }
  uint32_t currentOffset() const { return static_cast<uint32_t>(bytes_.size()); }

  // Patches all label fixups and returns the finished, position-
  // independent byte vector.
  Result<std::vector<uint8_t>> finalizeBytes();

  // Maps the code into executable memory placed near `hint` when it is
  // nonzero (ExecMemory::allocate's anchor: the function the code stands
  // in for) and finalizes it.
  Result<ExecMemory> finalizeExecutable(uint64_t hint = 0);

 private:
  struct Fixup {
    uint32_t fieldOffset;  // offset of the rel32 field in bytes_
    uint32_t labelId;
  };

  void fail(Error e) {
    if (status_.ok()) status_ = std::move(e);
  }

  std::vector<uint8_t> bytes_;
  std::vector<int64_t> labelOffsets_;  // -1 while unbound
  std::vector<Fixup> fixups_;
  Status status_;
};

}  // namespace brew::jit
