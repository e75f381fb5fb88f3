// Failure-mode tests (§III-G): "at all times, it is possible that we reach
// a situation that cannot be handled ... It simply means that the user of
// the rewriter API has to use the original version." Every failure must be
// a typed error — never a crash, never corrupted output.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/brew.h"
#include "core/rewriter.hpp"
#include "jit/assembler.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;
using jit::Assembler;

ExecMemory buildOrDie(Assembler& assembler) {
  auto mem = assembler.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << (mem.ok() ? "" : mem.error().message());
  return std::move(*mem);
}

ErrorCode rewriteError(const void* fn, Config config = Config{}) {
  Rewriter rewriter{std::move(config)};
  auto rewritten = rewriter.rewrite(fn, 0, 0);
  EXPECT_FALSE(rewritten.ok());
  return rewritten.ok() ? ErrorCode::Ok : rewritten.error().code;
}

TEST(Failure, UndecodableInstruction) {
  static const uint8_t code[] = {0x0f, 0x31, 0xc3};  // rdtsc; ret
  EXPECT_EQ(rewriteError(code), ErrorCode::UndecodableInstruction);
}

TEST(Failure, LockPrefix) {
  // lock add [rdi], eax
  static const uint8_t code[] = {0xf0, 0x01, 0x07, 0xc3};
  EXPECT_EQ(rewriteError(code), ErrorCode::UndecodableInstruction);
}

TEST(Failure, SyscallInstruction) {
  static const uint8_t code[] = {0x0f, 0x05, 0xc3};  // syscall
  EXPECT_EQ(rewriteError(code), ErrorCode::UndecodableInstruction);
}

TEST(Failure, IndirectUnknownJump) {
  Assembler as;
  as.emit(makeInstr(Mnemonic::JmpInd, 8, Operand::makeReg(Reg::rdi)));
  ExecMemory fn = buildOrDie(as);
  EXPECT_EQ(rewriteError(fn.data()), ErrorCode::IndirectUnknownJump);
}

TEST(Failure, UnknownStackPointerOnMovRsp) {
  Assembler as;
  as.movRegReg(Reg::rsp, Reg::rdi);  // rsp <- unknown value
  as.ret();
  ExecMemory fn = buildOrDie(as);
  EXPECT_EQ(rewriteError(fn.data()), ErrorCode::UnknownStackPointer);
}

TEST(Failure, LeaveWithoutFramePointer) {
  Assembler as;
  as.emit(makeInstr(Mnemonic::Leave, 8));  // rbp was never set up
  as.ret();
  ExecMemory fn = buildOrDie(as);
  EXPECT_EQ(rewriteError(fn.data()), ErrorCode::UnknownStackPointer);
}

TEST(Failure, WriteToDeclaredConstantMemory) {
  static int64_t data[2] = {1, 2};
  Assembler as;
  as.movMemReg(MemOperand{.base = Reg::rdi}, Reg::rsi, 8);
  as.ret();
  ExecMemory fn = buildOrDie(as);
  Config config;
  config.setParamKnownPtr(0, sizeof data);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), data, 1);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::WriteToKnownMemory);
  // The constant data is untouched by the failed attempt.
  EXPECT_EQ(data[0], 1);
}

TEST(Failure, RetWithImmediateUnsupported) {
  Assembler as;
  as.emit(makeInstr(Mnemonic::Ret, 8, Operand::makeImm(16)));
  ExecMemory fn = buildOrDie(as);
  EXPECT_EQ(rewriteError(fn.data()), ErrorCode::UnsupportedInstruction);
}

TEST(Failure, NullFunction) {
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(nullptr);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::InvalidArgument);
}

TEST(Failure, ErrorCarriesFaultAddress) {
  static const uint8_t code[] = {0x90, 0x90, 0x0f, 0x31, 0xc3};  // nops;rdtsc
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(code);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().address,
            reinterpret_cast<uint64_t>(code) + 2);
  EXPECT_NE(rewritten.error().message().find("0x"), std::string::npos);
}

TEST(Failure, ErrorMessagesAreDistinct) {
  // Every error code names itself.
  for (int c = 1; c <= static_cast<int>(ErrorCode::InvalidConfiguration);
       ++c) {
    const char* name = errorCodeName(static_cast<ErrorCode>(c));
    EXPECT_NE(std::string(name), "UnknownError") << c;
  }
}

TEST(Failure, SixteenBitSignExtensionBails) {
  // cbw (66 98) and cwd (66 99) work on ax/dx. Traced as cwde/cdq with an
  // unknown rax they would be re-encoded as the 32-bit forms.
  for (const uint8_t op : {uint8_t{0x98}, uint8_t{0x99}}) {
    Assembler as;
    as.movRegReg(Reg::rax, Reg::rdi);
    as.movRegReg(Reg::rdx, Reg::rdi);
    as.emitBytes(std::vector<uint8_t>{0x66, op});
    if (op == 0x99) as.movRegReg(Reg::rax, Reg::rdx);
    as.ret();
    ExecMemory fn = buildOrDie(as);
    EXPECT_EQ(rewriteError(fn.data()), ErrorCode::UnsupportedInstruction);
    // rax = 0x1234'5680: cbw sets ax to 0xff80; cwd sets dx to 0x0000.
    const uint64_t expected = op == 0x98 ? 0x1234ff80u : 0x12340000u;
    EXPECT_EQ(fn.entry<uint64_t (*)(uint64_t)>()(0x12345680u), expected);
  }
}

TEST(Failure, OriginalStillWorksAfterFailedRewrite) {
  // The whole §VIII robustness story: failure leaves the world unchanged.
  Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.emitBytes(std::vector<uint8_t>{0x0f, 0x31});  // rdtsc - undecodable
  as.ret();
  ExecMemory fn = buildOrDie(as);
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 1);
  ASSERT_FALSE(rewritten.ok());
  // Original executes fine (rdtsc clobbers rax; just check no crash).
  fn.entry<uint64_t (*)(uint64_t)>()(5);
}

TEST(Failure, LastErrorClearsAfterSuccess) {
  // A success on the same conf must not leave the previous failure's
  // message dangling (the stale-error gap this suite used to miss).
  static const uint8_t bogus[] = {0x0f, 0xa2, 0xc3};  // cpuid; ret
  Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.ret();
  ExecMemory good = buildOrDie(as);

  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 0);
  EXPECT_EQ(brew_rewrite2(conf, bogus), nullptr);
  EXPECT_NE(std::string(brew_lastError(conf)), "");

  brew_func* h = brew_rewrite2(conf, good.data());
  ASSERT_NE(h, nullptr);
  EXPECT_STREQ(brew_lastError(conf), "");
  brew_release_h(h);
  brew_freeConf(conf);
}

TEST(Failure, LastErrorIsThreadLocal) {
  static const uint8_t bogus[] = {0x0f, 0xa2, 0xc3};  // cpuid; ret
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 0);

  std::string workerSaw;
  std::thread worker([&] {
    EXPECT_EQ(brew_rewrite2(conf, bogus), nullptr);
    workerSaw = brew_lastError(conf);
  });
  worker.join();

  EXPECT_NE(workerSaw.find("Undecodable"), std::string::npos);
  // The failure happened on the worker; this thread's slot is untouched.
  EXPECT_STREQ(brew_lastError(conf), "");
  EXPECT_STREQ(brew_lastError(nullptr), "null conf");
  brew_freeConf(conf);
}

TEST(Failure, FlagsOfElidedCompareNotConsumable) {
  // A compare folds away (both inputs known); an instruction that would
  // CONSUME those flags at runtime cannot be captured soundly. Build:
  // known cmp, then cmov with *unknown* data so the cmov must be captured.
  Assembler as;
  as.movRegImm(Reg::rax, 1);
  as.movRegImm(Reg::rcx, 2);
  as.aluRegReg(Mnemonic::Cmp, Reg::rax, Reg::rcx);  // folds: flags stale
  // Make the flags "needed unknown": force the policy off for resolution
  // is the default — with known flags the cmov resolves instead. So this
  // program actually REWRITES fine; assert exactly that (the sound path
  // is resolution, not consumption).
  isa::Instruction cmov = makeInstr(Mnemonic::Cmovcc, 8,
                                    Operand::makeReg(Reg::rax),
                                    Operand::makeReg(Reg::rdi));
  cmov.cond = Cond::L;
  as.emit(cmov);
  as.ret();
  ExecMemory fn = buildOrDie(as);
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 77);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(77), 77);  // 1<2: taken
}

}  // namespace
}  // namespace brew
