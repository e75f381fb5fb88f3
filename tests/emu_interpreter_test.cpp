// Concrete execution through the rewriter: native execution is the oracle
// for the same machine code rewritten twice — once with every input known,
// so the tracer runs the whole function through its folds (a concrete run),
// and once with every input unknown, so the code is captured. Checked on
// hand-built functions and on randomly generated straight-line programs
// (property style).
#include <gtest/gtest.h>

#include <type_traits>

#include "core/rewriter.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

enum class Inputs { Known, Unknown };
constexpr Inputs kBothInputs[] = {Inputs::Known, Inputs::Unknown};

const char* describe(Inputs inputs) {
  return inputs == Inputs::Known ? "every input known" : "every input unknown";
}

// Rewrites `code` with `args` as the traced values, every parameter known
// or every parameter unknown; `config` supplies everything else.
template <typename... A>
Result<RewrittenFunction> rewriteWith(Inputs inputs, Config config,
                                      const void* code, A... args) {
  size_t index = 0;
  ((inputs == Inputs::Known
        ? config.setParamKnown(index++, std::is_floating_point_v<A>)
        : config.setParamUnknown(index++, std::is_floating_point_v<A>)),
   ...);
  Rewriter rewriter{config};
  return rewriter.rewrite(code, args...);
}

// Both rewrites of `code` must return what the native call returns.
template <typename R, typename... A>
void expectRewritesMatchNative(const ExecMemory& code, A... args) {
  using Fn = R (*)(A...);
  const R native = code.entry<Fn>()(args...);
  for (Inputs inputs : kBothInputs) {
    auto rewritten = rewriteWith(inputs, Config{}, code.data(), args...);
    ASSERT_TRUE(rewritten.ok())
        << describe(inputs) << ": " << rewritten.error().message();
    EXPECT_EQ(rewritten->template as<Fn>()(args...), native)
        << describe(inputs);
  }
}

ExecMemory finalizeOrDie(jit::Assembler& as) {
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << mem.error().message();
  return std::move(*mem);
}

TEST(Interpreter, RunsSimpleFunction) {
  jit::Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);
  EXPECT_EQ(mem.entry<uint64_t (*)(uint64_t, uint64_t)>()(30, 12), 42u);
  expectRewritesMatchNative<uint64_t>(mem, uint64_t{30}, uint64_t{12});
}

TEST(Interpreter, LoopAndBranches) {
  // sum 1..n
  jit::Assembler as;
  as.movRegImm(Reg::rax, 0);
  as.movRegReg(Reg::rcx, Reg::rdi);
  jit::Label loop = as.newLabel();
  jit::Label done = as.newLabel();
  as.bind(loop);
  as.aluRegImm(Mnemonic::Cmp, Reg::rcx, 0);
  as.jcc(Cond::E, done);
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rcx);
  as.aluRegImm(Mnemonic::Sub, Reg::rcx, 1);
  as.jmp(loop);
  as.bind(done);
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);

  for (uint64_t n : {0ull, 1ull, 10ull, 100ull}) {
    EXPECT_EQ(mem.entry<uint64_t (*)(uint64_t)>()(n), n * (n + 1) / 2);
    expectRewritesMatchNative<uint64_t>(mem, n);
  }
}

TEST(Interpreter, CallsAndStack) {
  // helper: rax = rdi * 3;  main: call helper twice, add results.
  jit::Assembler as;
  jit::Label helper = as.newLabel();
  jit::Label start = as.newLabel();
  as.jmp(start);
  as.bind(helper);
  as.emit(makeInstr(Mnemonic::Imul, 8, Operand::makeReg(Reg::rax),
                    Operand::makeReg(Reg::rdi), Operand::makeImm(3)));
  as.ret();
  as.bind(start);
  as.emit(makeInstr(Mnemonic::Push, 8, Operand::makeReg(Reg::rbx)));
  as.call(helper);
  as.movRegReg(Reg::rbx, Reg::rax);
  as.movRegReg(Reg::rdi, Reg::rsi);
  as.call(helper);
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rbx);
  as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(Reg::rbx)));
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);

  EXPECT_EQ(mem.entry<uint64_t (*)(uint64_t, uint64_t)>()(5, 7),
            36u);  // 15 + 21
  expectRewritesMatchNative<uint64_t>(mem, uint64_t{5}, uint64_t{7});
}

TEST(Interpreter, SseArithmetic) {
  jit::Assembler as;
  as.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm1)));
  as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm2)));
  as.emit(makeInstr(Mnemonic::Sqrtsd, 8, Operand::makeReg(Reg::xmm0),
                    Operand::makeReg(Reg::xmm0)));
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);

  // sqrt(3*5+1) = 4
  EXPECT_DOUBLE_EQ(
      (mem.entry<double (*)(double, double, double)>()(3.0, 5.0, 1.0)), 4.0);
  expectRewritesMatchNative<double>(mem, 3.0, 5.0, 1.0);
}

TEST(Interpreter, MemoryAccess) {
  int64_t data[4] = {10, 20, 30, 40};
  jit::Assembler as;
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rsi;
  m.scale = 8;
  as.movRegMem(Reg::rax, m, 8);
  as.aluRegImm(Mnemonic::Add, Reg::rax, 1);
  as.movMemReg(m, Reg::rax, 8);
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);
  using fn_t = uint64_t (*)(int64_t*, uint64_t);

  EXPECT_EQ(mem.entry<fn_t>()(data, 2), 31u);
  EXPECT_EQ(data[2], 31);
  // The data is not declared constant, so both rewrites keep the load and
  // the store.
  for (Inputs inputs : kBothInputs) {
    data[2] = 30;
    auto rewritten =
        rewriteWith(inputs, Config{}, mem.data(), data, uint64_t{2});
    ASSERT_TRUE(rewritten.ok())
        << describe(inputs) << ": " << rewritten.error().message();
    EXPECT_EQ(rewritten->as<fn_t>()(data, 2), 31u) << describe(inputs);
    EXPECT_EQ(data[2], 31) << describe(inputs);
  }
}

TEST(Interpreter, StepLimitStopsRunaway) {
  // for (rax = rdi; rax != 0; --rax) {}  A known trip count of a million
  // unrolls past the step limit (no variant-threshold migration escape);
  // an unknown one keeps the loop.
  jit::Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  jit::Label loop = as.newLabel();
  as.bind(loop);
  as.aluRegImm(Mnemonic::Sub, Reg::rax, 1);
  as.jcc(Cond::NE, loop);
  as.ret();
  const ExecMemory mem = finalizeOrDie(as);
  constexpr uint64_t kTrips = 1'000'000;
  EXPECT_EQ(mem.entry<uint64_t (*)(uint64_t)>()(kTrips), 0u);

  Config limited;
  limited.limits().maxTraceSteps = 1000;
  limited.limits().maxVariantsPerAddress = 1 << 28;
  auto runaway = rewriteWith(Inputs::Known, limited, mem.data(), kTrips);
  ASSERT_FALSE(runaway.ok());
  EXPECT_EQ(runaway.error().code, ErrorCode::TraceStepLimit);

  auto kept = rewriteWith(Inputs::Unknown, limited, mem.data(), kTrips);
  ASSERT_TRUE(kept.ok()) << kept.error().message();
  EXPECT_EQ(kept->as<uint64_t (*)(uint64_t)>()(kTrips), 0u);
}

TEST(Interpreter, UndecodableReported) {
  jit::Assembler as;
  as.emitBytes(std::vector<uint8_t>{0x0f, 0xa2});  // cpuid
  const ExecMemory mem = finalizeOrDie(as);
  for (Inputs inputs : kBothInputs) {
    auto result = rewriteWith(inputs, Config{}, mem.data());
    ASSERT_FALSE(result.ok()) << describe(inputs);
    EXPECT_EQ(result.error().code, ErrorCode::UndecodableInstruction)
        << describe(inputs);
  }
}

// ---- randomized straight-line differential testing -----------------------
//
// Generates random flag-safe straight-line programs over a few registers,
// executes them natively and through both rewrites, and compares the
// result. This cross-validates decoder, encoder, assembler, the tracer's
// folds and captures, and the semantics helpers in one sweep.

class RandomProgram : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgram, InterpreterAgreesWithNative) {
  Prng rng(GetParam());
  const Reg pool[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi, Reg::rdi,
                      Reg::r8, Reg::r9, Reg::r10, Reg::r11};

  for (int program = 0; program < 20; ++program) {
    jit::Assembler as;
    // Initialize all working registers from the two arguments.
    as.movRegReg(Reg::rax, Reg::rdi);
    as.movRegReg(Reg::rcx, Reg::rsi);
    as.movRegReg(Reg::rdx, Reg::rdi);
    as.movRegReg(Reg::r8, Reg::rsi);
    as.movRegReg(Reg::r9, Reg::rdi);
    as.movRegReg(Reg::r10, Reg::rsi);
    as.movRegReg(Reg::r11, Reg::rdi);

    const int len = 5 + static_cast<int>(rng.below(25));
    for (int i = 0; i < len; ++i) {
      const Reg dst = pool[rng.below(std::size(pool))];
      const Reg src = pool[rng.below(std::size(pool))];
      const uint8_t w = rng.chance(0.5) ? 8 : 4;
      switch (rng.below(7)) {
        case 0: as.aluRegReg(Mnemonic::Add, dst, src, w); break;
        case 1: as.aluRegReg(Mnemonic::Sub, dst, src, w); break;
        case 2: as.aluRegReg(Mnemonic::Xor, dst, src, w); break;
        case 3: as.aluRegImm(Mnemonic::And, dst,
                             static_cast<int64_t>(rng.next() & 0xFFFF), w);
          break;
        case 4:
          as.emit(makeInstr(Mnemonic::Imul, w, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
        case 5:
          as.emit(makeInstr(Mnemonic::Shl, w, Operand::makeReg(dst),
                            Operand::makeImm(rng.below(w * 8))));
          break;
        default: {
          isa::Instruction mz = makeInstr(Mnemonic::Movzx, 8,
                                          Operand::makeReg(dst),
                                          Operand::makeReg(src));
          mz.srcWidth = rng.chance(0.5) ? 1 : 2;
          as.emit(mz);
          break;
        }
      }
    }
    // Mix everything into rax.
    for (Reg r : {Reg::rcx, Reg::rdx, Reg::r8, Reg::r9, Reg::r10, Reg::r11})
      as.aluRegReg(Mnemonic::Add, Reg::rax, r);
    as.ret();

    const ExecMemory mem = finalizeOrDie(as);
    const uint64_t a = rng.next(), b = rng.next();
    SCOPED_TRACE(testing::Message()
                 << "seed " << GetParam() << " program " << program);
    expectRewritesMatchNative<uint64_t>(mem, a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace brew
