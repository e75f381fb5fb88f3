// Instruction metadata tests: flag def/use sets and register def/use sets
// (the passes and the tracer both rely on their conservativeness), and the
// instruction table's own consistency.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "isa/decoder.hpp"
#include "isa/encoder.hpp"
#include "isa/instruction.hpp"
#include "isa/printer.hpp"

namespace brew::isa {
namespace {

TEST(Flags, ArithmeticWritesAll) {
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Add, 8)), kArithFlags);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Cmp, 8)), kArithFlags);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Xor, 8)), kArithFlags);
}

TEST(Flags, IncDecPreserveCarry) {
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Inc, 8)) & kFlagCF, 0);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Dec, 8)) & kFlagCF, 0);
  EXPECT_NE(flagsWritten(makeInstr(Mnemonic::Inc, 8)) & kFlagZF, 0);
}

TEST(Flags, MovesWriteNothing) {
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Mov, 8)), 0);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Lea, 8)), 0);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Movsd, 8)), 0);
  EXPECT_EQ(flagsWritten(makeInstr(Mnemonic::Push, 8)), 0);
}

TEST(Flags, ConditionReads) {
  Instruction jcc = makeInstr(Mnemonic::Jcc, 8);
  jcc.cond = Cond::E;
  EXPECT_EQ(flagsRead(jcc), kFlagZF);
  jcc.cond = Cond::L;
  EXPECT_EQ(flagsRead(jcc), kFlagSF | kFlagOF);
  jcc.cond = Cond::BE;
  EXPECT_EQ(flagsRead(jcc), kFlagCF | kFlagZF);
  jcc.cond = Cond::G;
  EXPECT_EQ(flagsRead(jcc), kFlagSF | kFlagOF | kFlagZF);
  EXPECT_EQ(flagsRead(makeInstr(Mnemonic::Adc, 8)), kFlagCF);
  EXPECT_EQ(flagsRead(makeInstr(Mnemonic::Add, 8)), 0);
}

TEST(RegSets, SimpleBinop) {
  const Instruction add = makeInstr(Mnemonic::Add, 8,
                                    Operand::makeReg(Reg::rax),
                                    Operand::makeReg(Reg::rbx));
  EXPECT_EQ(regsWritten(add), regBit(Reg::rax));
  EXPECT_EQ(regsRead(add), regBit(Reg::rax) | regBit(Reg::rbx));

  const Instruction mov = makeInstr(Mnemonic::Mov, 8,
                                    Operand::makeReg(Reg::rax),
                                    Operand::makeReg(Reg::rbx));
  EXPECT_EQ(regsRead(mov), regBit(Reg::rbx));  // pure dest not read
}

TEST(RegSets, MemoryOperandsContributeAddressRegs) {
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rcx;
  m.scale = 8;
  const Instruction load = makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeMem(m));
  EXPECT_EQ(regsRead(load), regBit(Reg::rdi) | regBit(Reg::rcx));
  const Instruction store = makeInstr(Mnemonic::Mov, 8, Operand::makeMem(m),
                                      Operand::makeReg(Reg::rax));
  EXPECT_EQ(regsRead(store),
            regBit(Reg::rdi) | regBit(Reg::rcx) | regBit(Reg::rax));
  EXPECT_EQ(regsWritten(store), 0u);
}

TEST(RegSets, ImplicitOperands) {
  const Instruction idiv = makeInstr(Mnemonic::Idiv, 8,
                                     Operand::makeReg(Reg::rbx));
  EXPECT_NE(regsRead(idiv) & regBit(Reg::rax), 0u);
  EXPECT_NE(regsRead(idiv) & regBit(Reg::rdx), 0u);
  EXPECT_EQ(regsWritten(idiv), regBit(Reg::rax) | regBit(Reg::rdx));

  const Instruction shl = makeInstr(Mnemonic::Shl, 8,
                                    Operand::makeReg(Reg::rbx),
                                    Operand::makeReg(Reg::rcx));
  EXPECT_NE(regsRead(shl) & regBit(Reg::rcx), 0u);

  const Instruction push = makeInstr(Mnemonic::Push, 8,
                                     Operand::makeReg(Reg::r12));
  EXPECT_NE(regsRead(push) & regBit(Reg::rsp), 0u);
  EXPECT_NE(regsRead(push) & regBit(Reg::r12), 0u);
  EXPECT_EQ(regsWritten(push), regBit(Reg::rsp));
}

TEST(RegSets, CallClobbersCallerSaved) {
  const Instruction call = makeInstr(Mnemonic::CallInd, 8,
                                     Operand::makeReg(Reg::rax));
  const uint32_t written = regsWritten(call);
  EXPECT_NE(written & regBit(Reg::rax), 0u);
  EXPECT_NE(written & regBit(Reg::r11), 0u);
  EXPECT_NE(written & regBit(Reg::xmm0), 0u);
  EXPECT_EQ(written & regBit(Reg::rbx), 0u);   // callee-saved survives
  EXPECT_EQ(written & regBit(Reg::r12), 0u);
  const uint32_t read = regsRead(call);
  EXPECT_NE(read & regBit(Reg::rdi), 0u);      // may consume args
  EXPECT_NE(read & regBit(Reg::xmm7), 0u);
}

TEST(RegSets, XmmOps) {
  const Instruction mul = makeInstr(Mnemonic::Mulsd, 8,
                                    Operand::makeReg(Reg::xmm1),
                                    Operand::makeReg(Reg::xmm2));
  EXPECT_EQ(regsWritten(mul), regBit(Reg::xmm1));
  EXPECT_EQ(regsRead(mul), regBit(Reg::xmm1) | regBit(Reg::xmm2));
}

TEST(Metadata, ReadsDestination) {
  EXPECT_TRUE(readsDestination(makeInstr(Mnemonic::Add, 8)));
  EXPECT_TRUE(readsDestination(makeInstr(Mnemonic::Addsd, 8)));
  EXPECT_FALSE(readsDestination(makeInstr(Mnemonic::Mov, 8)));
  EXPECT_FALSE(readsDestination(makeInstr(Mnemonic::Lea, 8)));
  EXPECT_FALSE(readsDestination(makeInstr(Mnemonic::Movsx, 8)));
}

TEST(Metadata, WritesMemory) {
  MemOperand m;
  m.base = Reg::rdi;
  EXPECT_TRUE(writesMemory(makeInstr(Mnemonic::Mov, 8, Operand::makeMem(m),
                                     Operand::makeReg(Reg::rax))));
  EXPECT_FALSE(writesMemory(makeInstr(Mnemonic::Mov, 8,
                                      Operand::makeReg(Reg::rax),
                                      Operand::makeMem(m))));
  EXPECT_FALSE(writesMemory(makeInstr(Mnemonic::Cmp, 8, Operand::makeMem(m),
                                      Operand::makeReg(Reg::rax))));
  EXPECT_TRUE(writesMemory(makeInstr(Mnemonic::Push, 8,
                                     Operand::makeReg(Reg::rax))));
}

TEST(Metadata, CondInversion) {
  EXPECT_EQ(invert(Cond::E), Cond::NE);
  EXPECT_EQ(invert(Cond::NE), Cond::E);
  EXPECT_EQ(invert(Cond::L), Cond::GE);
  EXPECT_EQ(invert(Cond::A), Cond::BE);
}

TEST(Metadata, AbiClassification) {
  using namespace abi;
  EXPECT_TRUE(isCalleeSaved(Reg::rbx));
  EXPECT_TRUE(isCalleeSaved(Reg::r15));
  EXPECT_FALSE(isCalleeSaved(Reg::rax));
  EXPECT_TRUE(isCallerSaved(Reg::r11));
  EXPECT_TRUE(isCallerSaved(Reg::xmm15));
  EXPECT_FALSE(isCallerSaved(Reg::rbp));
  EXPECT_EQ(kIntArgs[0], Reg::rdi);
  EXPECT_EQ(kSseArgs[0], Reg::xmm0);
}

TEST(Table, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> seen;
  for (size_t m = 1; m < static_cast<size_t>(Mnemonic::Count_); ++m) {
    const std::string name = row(static_cast<Mnemonic>(m)).name;
    EXPECT_FALSE(name.empty()) << m;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

// Every row with an ALU or SSE encoding encodes, and decodes back to the
// same instruction, in register-register and register-memory form.
TEST(Table, EncodedRowsRoundTrip) {
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rcx;
  m.scale = 4;
  m.disp = 0x40;
  size_t checked = 0;
  for (size_t i = 0; i < static_cast<size_t>(Mnemonic::Count_); ++i) {
    const auto mn = static_cast<Mnemonic>(i);
    const Encoding& enc = row(mn).enc;
    if (enc.kind == Encoding::Kind::None) continue;
    const bool sse = enc.kind == Encoding::Kind::Sse;
    const uint8_t width = sse ? enc.arg : 8;
    const Reg dst = sse ? Reg::xmm3 : Reg::rdx;
    const Reg src = sse ? Reg::xmm12 : Reg::r9;
    const std::vector<Instruction> forms = {
        makeInstr(mn, width, Operand::makeReg(dst), Operand::makeReg(src)),
        makeInstr(mn, width, Operand::makeReg(dst), Operand::makeMem(m))};
    for (const Instruction& in : forms) {
      std::vector<uint8_t> bytes;
      ASSERT_TRUE(encode(in, 0x1000, bytes).ok()) << toString(in);
      auto back = decodeOne(bytes, 0x1000);
      ASSERT_TRUE(back.ok()) << toString(in);
      EXPECT_EQ(*back, in) << toString(in) << " -> " << toString(*back);
      EXPECT_EQ(back->length, bytes.size()) << toString(in);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2u * 46u);  // 8 ALU rows, 38 SSE rows
}

}  // namespace
}  // namespace brew::isa
