// Decoder unit tests: known byte sequences (cross-checked against binutils
// objdump output) must decode to the expected instruction.
#include <gtest/gtest.h>

#include <vector>

#include "isa/decoder.hpp"
#include "isa/printer.hpp"

namespace brew::isa {
namespace {

Instruction decodeOk(std::initializer_list<uint8_t> bytes,
                     uint64_t address = 0x1000) {
  std::vector<uint8_t> buf(bytes);
  auto result = decodeOne(buf, address);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message());
  if (!result.ok()) return Instruction{};
  EXPECT_EQ(result->length, buf.size()) << toString(*result);
  return *result;
}

TEST(Decoder, MovRegReg64) {
  // 49 89 f8   mov r8, rdi
  const Instruction instr = decodeOk({0x49, 0x89, 0xf8});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Mov);
  EXPECT_EQ(instr.width, 8);
  EXPECT_EQ(instr.ops[0].reg, Reg::r8);
  EXPECT_EQ(instr.ops[1].reg, Reg::rdi);
}

TEST(Decoder, MovsxdLoad) {
  // 48 63 3a   movsxd rdi, dword ptr [rdx]
  const Instruction instr = decodeOk({0x48, 0x63, 0x3a});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Movsxd);
  EXPECT_EQ(instr.width, 8);
  EXPECT_EQ(instr.ops[0].reg, Reg::rdi);
  ASSERT_TRUE(instr.ops[1].isMem());
  EXPECT_EQ(instr.ops[1].mem.base, Reg::rdx);
  EXPECT_EQ(instr.ops[1].mem.disp, 0);
}

TEST(Decoder, TestRegReg32) {
  // 85 ff      test edi, edi
  const Instruction instr = decodeOk({0x85, 0xff});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Test);
  EXPECT_EQ(instr.width, 4);
  EXPECT_EQ(instr.ops[0].reg, Reg::rdi);
  EXPECT_EQ(instr.ops[1].reg, Reg::rdi);
}

TEST(Decoder, JleRel8) {
  // 7e 46      jle +0x46 (target = addr + 2 + 0x46)
  const Instruction instr = decodeOk({0x7e, 0x46});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Jcc);
  EXPECT_EQ(instr.cond, Cond::LE);
  EXPECT_EQ(instr.ops[0].imm, 0x1000 + 2 + 0x46);
}

TEST(Decoder, ShlImm) {
  // 48 c1 e7 04   shl rdi, 4
  const Instruction instr = decodeOk({0x48, 0xc1, 0xe7, 0x04});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Shl);
  EXPECT_EQ(instr.width, 8);
  EXPECT_EQ(instr.ops[0].reg, Reg::rdi);
  EXPECT_EQ(instr.ops[1].imm, 4);
}

TEST(Decoder, PxorXmm) {
  // 66 0f ef c9   pxor xmm1, xmm1
  const Instruction instr = decodeOk({0x66, 0x0f, 0xef, 0xc9});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Pxor);
  EXPECT_EQ(instr.ops[0].reg, Reg::xmm1);
  EXPECT_EQ(instr.ops[1].reg, Reg::xmm1);
}

TEST(Decoder, MultiByteNop) {
  // 0f 1f 84 00 00 00 00 00   nopl 0x0(%rax,%rax,1)
  const Instruction instr =
      decodeOk({0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Nop);
  EXPECT_EQ(instr.length, 8);
}

TEST(Decoder, NopWithCsOverridePadding) {
  // 66 2e 0f 1f 84 00 00 00 00 00  gcc long nop with cs-segment padding
  const Instruction instr = decodeOk(
      {0x66, 0x2e, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Nop);
}

TEST(Decoder, MovslqWithDisp) {
  // 48 63 42 14   movsxd rax, dword ptr [rdx+0x14]
  const Instruction instr = decodeOk({0x48, 0x63, 0x42, 0x14});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Movsxd);
  EXPECT_EQ(instr.ops[0].reg, Reg::rax);
  EXPECT_EQ(instr.ops[1].mem.base, Reg::rdx);
  EXPECT_EQ(instr.ops[1].mem.disp, 0x14);
}

TEST(Decoder, ImulRegReg) {
  // 48 0f af c6   imul rax, rsi
  const Instruction instr = decodeOk({0x48, 0x0f, 0xaf, 0xc6});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Imul);
  EXPECT_EQ(instr.nops, 2);
  EXPECT_EQ(instr.ops[0].reg, Reg::rax);
  EXPECT_EQ(instr.ops[1].reg, Reg::rsi);
}

TEST(Decoder, MovsdWithSib) {
  // f2 41 0f 10 04 c0   movsd xmm0, qword ptr [r8+rax*8]
  const Instruction instr = decodeOk({0xf2, 0x41, 0x0f, 0x10, 0x04, 0xc0});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Movsd);
  EXPECT_EQ(instr.ops[0].reg, Reg::xmm0);
  const MemOperand& m = instr.ops[1].mem;
  EXPECT_EQ(m.base, Reg::r8);
  EXPECT_EQ(m.index, Reg::rax);
  EXPECT_EQ(m.scale, 8);
}

TEST(Decoder, MulsdNegativeDisp) {
  // f2 0f 59 42 f8   mulsd xmm0, qword ptr [rdx-0x8]
  const Instruction instr = decodeOk({0xf2, 0x0f, 0x59, 0x42, 0xf8});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Mulsd);
  EXPECT_EQ(instr.ops[1].mem.base, Reg::rdx);
  EXPECT_EQ(instr.ops[1].mem.disp, -8);
}

TEST(Decoder, AddsdRegReg) {
  // f2 0f 58 c8   addsd xmm1, xmm0
  const Instruction instr = decodeOk({0xf2, 0x0f, 0x58, 0xc8});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Addsd);
  EXPECT_EQ(instr.ops[0].reg, Reg::xmm1);
  EXPECT_EQ(instr.ops[1].reg, Reg::xmm0);
}

TEST(Decoder, CmpRegReg) {
  // 48 39 d7   cmp rdi, rdx
  const Instruction instr = decodeOk({0x48, 0x39, 0xd7});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Cmp);
  EXPECT_EQ(instr.ops[0].reg, Reg::rdi);
  EXPECT_EQ(instr.ops[1].reg, Reg::rdx);
}

TEST(Decoder, MovapdRegReg) {
  // 66 0f 28 c1   movapd xmm0, xmm1
  const Instruction instr = decodeOk({0x66, 0x0f, 0x28, 0xc1});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Movapd);
  EXPECT_EQ(instr.ops[0].reg, Reg::xmm0);
  EXPECT_EQ(instr.ops[1].reg, Reg::xmm1);
}

TEST(Decoder, Ret) {
  const Instruction instr = decodeOk({0xc3});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Ret);
}

TEST(Decoder, RipRelativeLoad) {
  // 48 8b 05 10 00 00 00   mov rax, qword ptr [rip+0x10]
  const Instruction instr = decodeOk({0x48, 0x8b, 0x05, 0x10, 0x00, 0x00,
                                      0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Mov);
  EXPECT_TRUE(instr.ops[1].mem.ripRelative);
  EXPECT_EQ(instr.ops[1].mem.disp, 0x10);
}

TEST(Decoder, LeaWithSibNoBase) {
  // 48 8d 04 cd 00 00 00 00   lea rax, [rcx*8+0x0]
  const Instruction instr =
      decodeOk({0x48, 0x8d, 0x04, 0xcd, 0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Lea);
  EXPECT_EQ(instr.ops[1].mem.base, Reg::none);
  EXPECT_EQ(instr.ops[1].mem.index, Reg::rcx);
  EXPECT_EQ(instr.ops[1].mem.scale, 8);
}

TEST(Decoder, PushPopR15) {
  EXPECT_EQ(decodeOk({0x41, 0x57}).mnemonic, Mnemonic::Push);
  EXPECT_EQ(decodeOk({0x41, 0x57}).ops[0].reg, Reg::r15);
  EXPECT_EQ(decodeOk({0x41, 0x5f}).mnemonic, Mnemonic::Pop);
  EXPECT_EQ(decodeOk({0x41, 0x5f}).ops[0].reg, Reg::r15);
}

TEST(Decoder, CallRel32) {
  // e8 00 00 00 00   call next-instruction
  const Instruction instr = decodeOk({0xe8, 0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Call);
  EXPECT_EQ(instr.ops[0].imm, 0x1000 + 5);
}

TEST(Decoder, CallIndirectThroughRegister) {
  // ff d0   call rax
  const Instruction instr = decodeOk({0xff, 0xd0});
  EXPECT_EQ(instr.mnemonic, Mnemonic::CallInd);
  EXPECT_EQ(instr.ops[0].reg, Reg::rax);
}

TEST(Decoder, MovzxByte) {
  // 0f b6 c0   movzx eax, al
  const Instruction instr = decodeOk({0x0f, 0xb6, 0xc0});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Movzx);
  EXPECT_EQ(instr.width, 4);
  EXPECT_EQ(instr.srcWidth, 1);
}

TEST(Decoder, SetccByteReg) {
  // 0f 94 c0   sete al
  const Instruction instr = decodeOk({0x0f, 0x94, 0xc0});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Setcc);
  EXPECT_EQ(instr.cond, Cond::E);
  EXPECT_EQ(instr.ops[0].reg, Reg::rax);
}

TEST(Decoder, Cqo) {
  const Instruction instr = decodeOk({0x48, 0x99});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Cdq);
  EXPECT_EQ(instr.width, 8);
}

TEST(Decoder, Endbr64) {
  const Instruction instr = decodeOk({0xf3, 0x0f, 0x1e, 0xfa});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Endbr64);
}

TEST(Decoder, MovAbs64) {
  // 48 b8 88 77 66 55 44 33 22 11   movabs rax, 0x1122334455667788
  const Instruction instr = decodeOk(
      {0x48, 0xb8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Mov);
  EXPECT_EQ(instr.ops[1].imm, 0x1122334455667788LL);
}

TEST(Decoder, RejectsUnsupported) {
  // 0f a2  cpuid
  auto result = decodeOne(std::vector<uint8_t>{0x0f, 0xa2}, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::UndecodableInstruction);
}

TEST(Decoder, RejectsLockPrefix) {
  auto result = decodeOne(std::vector<uint8_t>{0xf0, 0x48, 0x01, 0x08}, 0);
  ASSERT_FALSE(result.ok());
}

TEST(Decoder, RejectsEmpty) {
  auto result = decodeOne(std::vector<uint8_t>{}, 0);
  ASSERT_FALSE(result.ok());
}

TEST(Decoder, RejectsTruncated) {
  // mov rax, [rip+disp32] cut short
  auto result = decodeOne(std::vector<uint8_t>{0x48, 0x8b, 0x05, 0x10}, 0);
  ASSERT_FALSE(result.ok());
}

TEST(Decoder, OperandSizeSignExtension) {
  // 66 98 is cbw and 66 99 is cwd: the 16-bit forms, not cwde/cdq.
  const Instruction cbw = decodeOk({0x66, 0x98});
  EXPECT_EQ(cbw.mnemonic, Mnemonic::Cdqe);
  EXPECT_EQ(cbw.width, 2);
  EXPECT_EQ(toString(cbw), "cbw");
  const Instruction cwd = decodeOk({0x66, 0x99});
  EXPECT_EQ(cwd.mnemonic, Mnemonic::Cdq);
  EXPECT_EQ(cwd.width, 2);
  EXPECT_EQ(toString(cwd), "cwd");
  // REX.W wins over 66: 66 48 98 is cdqe.
  EXPECT_EQ(decodeOk({0x66, 0x48, 0x98}).width, 8);
  EXPECT_EQ(decodeOk({0x98}).width, 4);
}

TEST(Decoder, LegacyHighByteRejected) {
  // 88 e0  mov al, ah (no REX: ah is a legacy high-byte register)
  auto result = decodeOne(std::vector<uint8_t>{0x88, 0xe0}, 0);
  ASSERT_FALSE(result.ok());
}

TEST(Decoder, Grp1ImmediateForms) {
  // 83 c0 05  add eax, 5
  Instruction instr = decodeOk({0x83, 0xc0, 0x05});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Add);
  EXPECT_EQ(instr.ops[1].imm, 5);
  // 81 ef 00 01 00 00  sub edi, 0x100
  instr = decodeOk({0x81, 0xef, 0x00, 0x01, 0x00, 0x00});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Sub);
  EXPECT_EQ(instr.ops[0].reg, Reg::rdi);
  EXPECT_EQ(instr.ops[1].imm, 0x100);
  // 48 83 ec 18  sub rsp, 0x18
  instr = decodeOk({0x48, 0x83, 0xec, 0x18});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Sub);
  EXPECT_EQ(instr.ops[0].reg, Reg::rsp);
  EXPECT_EQ(instr.width, 8);
}

TEST(Decoder, R13BaseNeedsDisp) {
  // 41 8b 45 00   mov eax, dword ptr [r13+0x0]
  const Instruction instr = decodeOk({0x41, 0x8b, 0x45, 0x00});
  EXPECT_EQ(instr.ops[1].mem.base, Reg::r13);
  EXPECT_EQ(instr.ops[1].mem.disp, 0);
}

TEST(Decoder, CvtSi2SdFromReg) {
  // f2 48 0f 2a c7   cvtsi2sd xmm0, rdi
  const Instruction instr = decodeOk({0xf2, 0x48, 0x0f, 0x2a, 0xc7});
  EXPECT_EQ(instr.mnemonic, Mnemonic::Cvtsi2sd);
  EXPECT_EQ(instr.srcWidth, 8);
  EXPECT_EQ(instr.ops[0].reg, Reg::xmm0);
  EXPECT_EQ(instr.ops[1].reg, Reg::rdi);
}

}  // namespace
}  // namespace brew::isa
