// End-to-end rewriter tests on deterministic assembler-built inputs:
// the tracer is exercised independently of compiler output.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "core/dispatch.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "isa/printer.hpp"
#include "jit/assembler.hpp"
#include "pgas/pgas.h"
#include "pgas/runtime.hpp"
#include "stencil/stencil.hpp"

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

// rax = rdi + rsi
ExecMemory buildAdd() {
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rdi);
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, IdentityNoKnownParams) {
  ExecMemory fn = buildAdd();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 1, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto add = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(add(2, 3), 5);
  EXPECT_EQ(add(-10, 4), -6);
  EXPECT_EQ(add(INT64_MAX, 1), INT64_MIN);
}

TEST(Rewrite, SpecializeSecondParam) {
  ExecMemory fn = buildAdd();
  Config config;
  config.setParamKnown(1);  // rsi fixed
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 42);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto addK = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  // Drop-in signature; the second argument is ignored (baked in as 42).
  EXPECT_EQ(addK(1, 999), 43);
  EXPECT_EQ(addK(-42, 7), 0);
  // The add must have been folded to an immediate form: no instruction may
  // reference rsi anymore.
  const std::string disasm = rewritten->disassembly();
  EXPECT_EQ(disasm.find("rsi"), std::string::npos) << disasm;
}

TEST(Rewrite, FullyConstantFunction) {
  ExecMemory fn = buildAdd();
  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 30, 12);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto constFn = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(constFn(0, 0), 42);
  // Everything folds: the body should be a single mov + ret.
  EXPECT_LE(rewritten->traceStats().capturedInstructions, 1u);
}

// rax = rdi * 8 + 3 via shl/add, exercising flag semantics.
TEST(Rewrite, ShiftAndAdd) {
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rdi);
  a.emit(makeInstr(Mnemonic::Shl, 8, Operand::makeReg(Reg::rax),
                   Operand::makeImm(3)));
  a.aluRegImm(Mnemonic::Add, Reg::rax, 3);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Rewriter plain{Config{}};
  auto rewritten = plain.rewrite(fn.data(), 5);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(5), 43);

  Config config;
  config.setParamKnown(0);
  Rewriter spec{config};
  auto specialized = spec.rewrite(fn.data(), 5);
  ASSERT_TRUE(specialized.ok());
  EXPECT_EQ(specialized->as<int64_t (*)(int64_t)>()(123), 43);
}

TEST(Rewrite, ShiftByZeroStillClearsUpperHalf) {
  // shl eax, 0 leaves the flags alone but, as every 32-bit write, clears
  // bits 32-63. Both the immediate and the known CL count fold it.
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rdi);
  a.emit(makeInstr(Mnemonic::Shl, 4, Operand::makeReg(Reg::rax),
                   Operand::makeImm(0)));
  a.movRegReg(Reg::rdx, Reg::rdi);
  a.movRegReg(Reg::rcx, Reg::rsi);
  a.emit(makeInstr(Mnemonic::Shl, 4, Operand::makeReg(Reg::rdx),
                   Operand::makeReg(Reg::rcx)));
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rdx);
  a.ret();
  ExecMemory fn = buildOrDie(a);
  using fn_t = uint64_t (*)(uint64_t, uint64_t);
  constexpr uint64_t kInput = 0x54f02b4e315b5382ull;
  ASSERT_EQ(fn.entry<fn_t>()(kInput, 0), 2 * 0x315b5382ull);

  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter spec{config};
  auto specialized = spec.rewrite(fn.data(), kInput, uint64_t{0});
  ASSERT_TRUE(specialized.ok()) << specialized.error().message();
  EXPECT_EQ(specialized->as<fn_t>()(kInput, 0), 2 * 0x315b5382ull);
}

// Conditional: rax = (rdi < rsi) ? 1 : 2.
ExecMemory buildCompare() {
  Assembler a;
  jit::Label less = a.newLabel();
  a.aluRegReg(Mnemonic::Cmp, Reg::rdi, Reg::rsi);
  a.jcc(Cond::L, less);
  a.movRegImm(Reg::rax, 2);
  a.ret();
  a.bind(less);
  a.movRegImm(Reg::rax, 1);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, UnknownBranchCapturesBothPaths) {
  ExecMemory fn = buildCompare();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 0);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto cmp = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(cmp(1, 2), 1);
  EXPECT_EQ(cmp(2, 1), 2);
  EXPECT_EQ(cmp(7, 7), 2);
  EXPECT_GE(rewritten->traceStats().capturedBranches, 1u);
}

TEST(Rewrite, KnownBranchResolved) {
  ExecMemory fn = buildCompare();
  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 1, 5);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t, int64_t)>()(100, 0), 1);
  EXPECT_EQ(rewritten->traceStats().capturedBranches, 0u);
  EXPECT_GE(rewritten->traceStats().resolvedBranches, 1u);
}

// Loop: sum of 1..rdi — fully unrolled when rdi is known.
ExecMemory buildSumLoop() {
  Assembler a;
  a.movRegImm(Reg::rax, 0);
  a.movRegReg(Reg::rcx, Reg::rdi);
  jit::Label loop = a.newLabel();
  jit::Label done = a.newLabel();
  a.bind(loop);
  a.aluRegImm(Mnemonic::Cmp, Reg::rcx, 0);
  a.jcc(Cond::E, done);
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rcx);
  a.aluRegImm(Mnemonic::Sub, Reg::rcx, 1);
  a.jmp(loop);
  a.bind(done);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, KnownLoopFullyUnrolls) {
  ExecMemory fn = buildSumLoop();
  Config config;
  config.setParamKnown(0);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 10);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(0), 55);
  // No captured branches: the loop was evaluated away entirely.
  EXPECT_EQ(rewritten->traceStats().capturedBranches, 0u);
}

TEST(Rewrite, UnknownLoopKeepsControlFlow) {
  ExecMemory fn = buildSumLoop();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 1);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto sum = rewritten->as<int64_t (*)(int64_t)>();
  EXPECT_EQ(sum(0), 0);
  EXPECT_EQ(sum(1), 1);
  EXPECT_EQ(sum(100), 5050);
  EXPECT_GE(rewritten->traceStats().capturedBranches, 1u);
}

// Memory: rax = m[rdi] with a known constant table.
TEST(Rewrite, KnownMemoryLoadFolds) {
  static const int64_t table[4] = {10, 20, 30, 40};
  Assembler a;
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rsi;
  m.scale = 8;
  a.movRegMem(Reg::rax, m, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof table);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), table, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(const int64_t*, int64_t)>()(nullptr, 0),
            30);
}

TEST(Rewrite, IndexFoldsIntoDisplacement) {
  // m[rsi] with known rsi: load becomes [rdi + 16].
  Assembler a;
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rsi;
  m.scale = 8;
  a.movRegMem(Reg::rax, m, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  int64_t data[4] = {10, 20, 30, 40};
  EXPECT_EQ(rewritten->as<int64_t (*)(const int64_t*, int64_t)>()(data, 0),
            30);
  const std::string disasm = rewritten->disassembly();
  EXPECT_EQ(disasm.find("rsi"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("rdi+0x10"), std::string::npos) << disasm;
}

TEST(Rewrite, StoreToUnknownPointerSurvives) {
  // *(int64*)rdi = rsi + 1
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rsi);
  a.aluRegImm(Mnemonic::Add, Reg::rax, 1);
  a.movMemReg(MemOperand{.base = Reg::rdi}, Reg::rax, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, 41);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  int64_t out = 0;
  rewritten->as<void (*)(int64_t*, int64_t)>()(&out, 0);
  EXPECT_EQ(out, 42);
}

TEST(Rewrite, WriteToKnownMemoryFails) {
  static int64_t data[1] = {0};
  Assembler a;
  a.movMemReg(MemOperand{.base = Reg::rdi}, Reg::rsi, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof data);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), data, 0);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::WriteToKnownMemory);
}

TEST(Rewrite, UndecodableFailsGracefully) {
  Assembler a;
  a.emitBytes(std::vector<uint8_t>{0x0f, 0xa2, 0xc3});  // cpuid; ret
  ExecMemory fn = buildOrDie(a);
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data());
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::UndecodableInstruction);
}

TEST(Rewrite, SseSpecialization) {
  // xmm0 = xmm0 * xmm1 + constant table load
  static const double factor[1] = {2.5};
  Assembler a;
  a.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(Reg::xmm0),
                   Operand::makeReg(Reg::xmm1)));
  a.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(Reg::xmm0),
                   Operand::makeMem(MemOperand{.base = Reg::rdi})));
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof factor);   // int param: the pointer
  config.setParamKnown(1, /*isFloat=*/true);   // xmm1 fixed at 3.0
  config.setParamFloat(2);
  Rewriter rewriter{config};
  // signature: f(const double* table, double unknown_x, double known_y)
  // registers: rdi = table, xmm0 = x (unknown), xmm1 = y (known)
  const ArgValue args[] = {ArgValue::fromPtr(factor),
                           ArgValue::fromDouble(0.0),  // placeholder for x
                           ArgValue::fromDouble(3.0)};
  // Parameter order: 0 -> rdi (known ptr), 1 -> xmm0 (unknown), 2 -> xmm1.
  Config config2;
  config2.setParamKnownPtr(0, sizeof factor);
  config2.setParamFloat(1);
  config2.setParamKnown(2, true);
  Rewriter rewriter2{config2};
  auto rewritten = rewriter2.rewrite(fn.data(), args);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto f = rewritten->as<double (*)(const double*, double, double)>();
  EXPECT_DOUBLE_EQ(f(nullptr, 2.0, 99.0), 2.0 * 3.0 * 2.5);
}

TEST(Rewrite, DropInSignatureKeepsUnknownArgsWorking) {
  // f(a, b) = a*2 + b, specialize b.
  Assembler a;
  a.emit(makeInstr(Mnemonic::Lea, 8, Operand::makeReg(Reg::rax),
                   Operand::makeMem(MemOperand{
                       .base = Reg::rdi, .index = Reg::rdi, .scale = 1})));
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  a.ret();
  ExecMemory fn = buildOrDie(a);
  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 100);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto f = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  for (int64_t x : {-5, 0, 3, 1000}) EXPECT_EQ(f(x, 0), x * 2 + 100);
}

// --- Placement: generated code lands in its subject's 4 GiB window -----
//
// Every producer of code that stands in for a function maps it next to
// that function (docs/INTERNALS.md "Executable memory"). These guard each
// producer the benchmarks call through: a new allocation site that forgets
// its anchor fails here.

bool inSubjectWindow(const void* subject, const void* code, size_t size) {
  const auto a = reinterpret_cast<uintptr_t>(subject);
  const auto lo = reinterpret_cast<uintptr_t>(code);
  const uintptr_t hi = lo + size;
  return (lo >> 32) == (a >> 32) && ((hi - 1) >> 32) == (a >> 32) &&
         std::max(hi, a) - std::min(lo, a) < (uintptr_t{1} << 31);
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

Config stencilCellConfig() {
  Config config;
  config.setParamKnown(1);
  config.setParamKnownPtr(2, sizeof(brew_stencil));
  config.setReturnKind(ReturnKind::Float);
  return config;
}

pgas::Runtime::Options placementPgasOptions() {
  pgas::Runtime::Options options;
  options.ranks = 4;
  options.myRank = 0;
  options.elementsPerRank = 256;
  return options;
}

TEST(Placement, StencilSpecializationLandsInSubjectWindow) {
  constexpr int kXs = 32, kYs = 24;
  const brew_stencil s = stencil::fivePoint();
  const void* subject = reinterpret_cast<const void*>(&brew_stencil_apply);
  Rewriter rewriter{stencilCellConfig()};
  auto rewritten = rewriter.rewrite(subject, nullptr, kXs, &s);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_TRUE(inSubjectWindow(subject, rewritten->entry(),
                              rewritten->codeSize()))
      << rewritten->entry() << " for " << subject;
  auto spec = rewritten->as<brew_stencil_fn>();
  stencil::Matrix m(kXs, kYs);
  m.fillDeterministic();
  for (int y = 1; y < kYs - 1; ++y)
    for (int x = 1; x < kXs - 1; ++x) {
      const double* cell = m.data() + y * kXs + x;
      ASSERT_TRUE(sameBits(spec(cell, kXs, &s),
                           brew_stencil_apply(cell, kXs, &s)))
          << x << "," << y;
    }
}

TEST(Placement, PgasAccessorSpecializationsLandInSubjectWindow) {
  pgas::Runtime rt(placementPgasOptions());
  for (int r = 0; r < rt.ranks(); ++r)
    for (long i = 0; i < 256; ++i)
      rt.segment(r)[i] = r + 1.0 / static_cast<double>(1 + i);
  brew_pgas_view v = rt.view(0);

  Config readConfig;
  readConfig.setParamKnownPtr(0, sizeof(brew_pgas_view));
  readConfig.setReturnKind(ReturnKind::Float);
  readConfig.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_read),
      FunctionOptions{.inlineCalls = false, .pure = true});
  Config writeConfig;
  writeConfig.setParamKnownPtr(0, sizeof(brew_pgas_view));
  writeConfig.setParamFloat(2);
  writeConfig.setReturnKind(ReturnKind::Void);
  writeConfig.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_write),
      FunctionOptions{.inlineCalls = false});

  const void* readFn = reinterpret_cast<const void*>(&brew_pgas_read);
  const void* writeFn = reinterpret_cast<const void*>(&brew_pgas_write);
  Rewriter reader{readConfig};
  auto read = reader.rewrite(readFn, &v, 0L);
  ASSERT_TRUE(read.ok()) << read.error().message();
  const ArgValue writeArgs[] = {ArgValue::fromPtr(&v), ArgValue::fromInt(0),
                                ArgValue::fromDouble(0.0)};
  Rewriter writer{writeConfig};
  auto write = writer.rewrite(writeFn, writeArgs);
  ASSERT_TRUE(write.ok()) << write.error().message();
  EXPECT_TRUE(inSubjectWindow(readFn, read->entry(), read->codeSize()))
      << read->entry() << " for " << readFn;
  EXPECT_TRUE(inSubjectWindow(writeFn, write->entry(), write->codeSize()))
      << write->entry() << " for " << writeFn;

  auto specRead = read->as<brew_pgas_read_fn>();
  auto specWrite = write->as<brew_pgas_write_fn>();
  for (long i = 0; i < rt.globalLength(); i += 3) {
    ASSERT_TRUE(sameBits(specRead(&v, i), brew_pgas_read(&v, i))) << i;
    const double x = 0.25 * static_cast<double>(i) - 7.0;
    specWrite(&v, i, x);
    ASSERT_TRUE(sameBits(brew_pgas_read(&v, i), x)) << i;
    brew_pgas_write(&v, i, -x);
    ASSERT_TRUE(sameBits(specRead(&v, i), -x)) << i;
  }
}

TEST(Placement, AsyncEntryStubLandsInSubjectWindow) {
  // An asynchronous dispatcher keyed on the row width: its stub is the
  // stable entry, and the variant the worker builds lands next to it.
  constexpr int kXs = 16;
  const brew_stencil s = stencil::fivePoint();
  const void* subject = reinterpret_cast<const void*>(&brew_stencil_apply);
  DispatchOptions options;
  options.sampleCalls = 1;
  options.promoteThreshold = 1;
  options.asyncSpecialize = true;
  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, subject, 1,
                      {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
                       ArgValue::fromPtr(&s)},
                      stencilCellConfig(), options);
  ASSERT_TRUE(d.valid());
  EXPECT_TRUE(inSubjectWindow(subject, d.entry(), 1))
      << d.entry() << " for " << subject;

  stencil::Matrix m(kXs, kXs);
  m.fillDeterministic();
  auto spec = d.as<brew_stencil_fn>();
  auto sweepCells = [&] {
    for (int i = kXs + 1; i < kXs * (kXs - 1) - 1; ++i)
      ASSERT_TRUE(sameBits(spec(m.data() + i, kXs, &s),
                           brew_stencil_apply(m.data() + i, kXs, &s)))
          << i;
  };
  // The original serves every call until the worker's variant installs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.variantCount() == 0 && !HasFatalFailure() &&
         std::chrono::steady_clock::now() < deadline)
    sweepCells();
  ASSERT_EQ(d.variantCount(), 1u);
  const VariantInfo variant = d.variants()[0];
  EXPECT_EQ(variant.key, static_cast<uint64_t>(kXs));
  EXPECT_TRUE(inSubjectWindow(subject, variant.entry, variant.codeBytes))
      << variant.entry << " for " << subject;
  sweepCells();
  EXPECT_GT(d.variants()[0].hits, variant.hits);  // the variant served them
}

TEST(Placement, DispatcherStubAndVariantsLandInSubjectWindow) {
  constexpr int kXs = 24, kYs = 12;
  const brew_stencil s = stencil::fivePoint();
  const void* subject = reinterpret_cast<const void*>(&brew_stencil_sweep);
  Config config;
  config.setParamKnown(4);
  config.setParamKnownPtr(5, sizeof s);
  config.setReturnKind(ReturnKind::Void);
  config.setFunctionOptions(
      subject,
      FunctionOptions{.inlineCalls = true, .forceUnknownResults = true});
  const std::vector<ArgValue> proto = {
      ArgValue::fromPtr(nullptr), ArgValue::fromPtr(nullptr),
      ArgValue::fromInt(0), ArgValue::fromInt(0),
      ArgValue::fromPtr(reinterpret_cast<const void*>(&brew_stencil_apply)),
      ArgValue::fromPtr(&s)};
  DispatchOptions options;
  options.sampleCalls = 4;
  options.promoteThreshold = 2;
  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, subject, 2, proto, config, options);
  ASSERT_TRUE(d.valid());
  EXPECT_TRUE(inSubjectWindow(subject, d.entry(), 1))
      << d.entry() << " for " << subject;

  stencil::Matrix src(kXs, kYs), want(kXs, kYs), got(kXs, kYs);
  src.fillDeterministic();
  brew_stencil_sweep(want.data(), src.data(), kXs, kYs, &brew_stencil_apply,
                     &s);
  const size_t bytes = sizeof(double) * kXs * kYs;
  auto sweep = d.as<decltype(&brew_stencil_sweep)>();
  for (int call = 0; call < 32; ++call) {
    std::memset(got.data(), 0, bytes);
    sweep(got.data(), src.data(), kXs, kYs, &brew_stencil_apply, &s);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0) << call;
  }
  const std::vector<VariantInfo> variants = d.variants();
  ASSERT_FALSE(variants.empty());
  for (const VariantInfo& v : variants)
    EXPECT_TRUE(inSubjectWindow(subject, v.entry, v.codeBytes))
        << v.entry << " for " << subject;
}

}  // namespace
}  // namespace brew
