// Multi-version dispatch (core/dispatch.hpp): predicate-keyed variant
// lookup, miss-path sampling, inline-cache promotion,
// decay/hysteresis under a shifting key distribution, fixed seed sets (the
// paper's §III-D guard), epoch bumps, and a multi-thread hammer (the
// binary carries the `concurrency` label so the TSan sweep runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "core/dispatch.hpp"
#include "jit/assembler.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

// f(mode, x) = mode * k + x, built deterministically.
ExecMemory buildKernel(int64_t k) {
  jit::Assembler as;
  as.emit(isa::makeInstr(Mnemonic::Imul, 8, isa::Operand::makeReg(Reg::rax),
                         isa::Operand::makeReg(Reg::rdi),
                         isa::Operand::makeImm(k)));
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

using kernel_t = int64_t (*)(int64_t, int64_t);

// Observes which calls reach the ORIGINAL function. The counting kernel
// bumps g_originalCalls only while g_countOriginal is set, and the flag is
// declared a known region: variants traced while it is 0 fold the check
// away, so only the original's live load can take the counting branch.
int64_t g_countOriginal = 0;
int64_t g_originalCalls = 0;

// f(mode, x) = mode * 1000 + x, plus the original-call counter above.
ExecMemory buildCountingKernel() {
  jit::Assembler as;
  jit::Label compute = as.newLabel();
  as.movRegImm(Reg::r11, static_cast<int64_t>(
                             reinterpret_cast<uintptr_t>(&g_countOriginal)));
  as.movRegMem(Reg::r11, MemOperand{.base = Reg::r11});
  as.aluRegImm(Mnemonic::Cmp, Reg::r11, 0, 8);
  as.jcc(Cond::E, compute);
  as.movRegImm(Reg::r11, static_cast<int64_t>(
                             reinterpret_cast<uintptr_t>(&g_originalCalls)));
  as.emit(isa::makeInstr(Mnemonic::Add, 8,
                         Operand::makeMem(MemOperand{.base = Reg::r11}),
                         Operand::makeImm(1)));
  as.bind(compute);
  as.emit(isa::makeInstr(Mnemonic::Imul, 8, Operand::makeReg(Reg::rax),
                         Operand::makeReg(Reg::rdi), Operand::makeImm(1000)));
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

// The kernels above in wrapping 64-bit arithmetic (large keys overflow).
int64_t expectKernel(uint64_t mode, uint64_t x) {
  return static_cast<int64_t>(mode * 1000 + x);
}

std::vector<ArgValue> protoArgs() {
  return {ArgValue::fromInt(0), ArgValue::fromInt(0)};
}

DispatchOptions fastOptions() {
  DispatchOptions opt;
  opt.maxVariants = 2;
  opt.sampleCalls = 8;
  opt.promoteThreshold = 4;
  opt.decayInterval = 32;
  return opt;
}

TEST(Dispatch, PredicateKeyedLookupStaysCorrect) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Two hot keys: every call computes correctly whether it runs the
  // original (sampling), the miss path, or a specialized variant.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(3, i), 3000 + i) << "call " << i;
    ASSERT_EQ(fn(8, i), 8000 + i) << "call " << i;
  }
  EXPECT_EQ(d.variantCount(), 2u);
  for (const VariantInfo& v : d.variants()) {
    EXPECT_TRUE(v.key == 3u || v.key == 8u);
    EXPECT_NE(v.entry, nullptr);
    EXPECT_GT(v.codeBytes, 0u);
    EXPECT_EQ(v.epoch, 0u);
  }
  const DispatchStats s = d.stats();
  EXPECT_EQ(s.promotions, 2u);
  EXPECT_EQ(s.variantsLive, 2u);
  EXPECT_GT(s.misses, 0u);  // the warm-up misses
}

TEST(Dispatch, MonomorphicStubFastPathBypassesResolver) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Warm one key until it is promoted and inline-cached.
  for (int i = 0; i < 64; ++i) ASSERT_EQ(fn(7, i), 7000 + i);
  ASSERT_EQ(d.variantCount(), 1u);
  ASSERT_TRUE(d.variants()[0].inlineCached);

  // The monomorphic fast path never reaches resolve(): resolver counters
  // freeze while the stub's per-way hit counter keeps advancing.
  const DispatchStats before = d.stats();
  const uint64_t hitsBefore = d.variants()[0].hits;
  for (int i = 0; i < 50; ++i) ASSERT_EQ(fn(7, i), 7000 + i);
  const DispatchStats after = d.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.tableHits, before.tableHits);
  EXPECT_EQ(d.variants()[0].hits, hitsBefore + 50);
}

TEST(Dispatch, HysteresisAndDecayUnderShiftingDistribution) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());  // maxVariants = 2
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Phase 1: keys 1 and 2 are hot and fill the table.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);

  // Phase 2: the distribution shifts to keys 5 and 6. Decay erodes the old
  // variants' scores; the challengers take over once they clearly win —
  // and the table never exceeds its budget on the way.
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(fn(5, i), 5000 + i);
    ASSERT_EQ(fn(6, i), 6000 + i);
    ASSERT_LE(d.variantCount(), 2u);
  }
  std::set<uint64_t> keys;
  for (const VariantInfo& v : d.variants()) keys.insert(v.key);
  EXPECT_EQ(keys, (std::set<uint64_t>{5, 6}));

  const DispatchStats shifted = d.stats();
  EXPECT_GE(shifted.demotions, 2u);  // the phase-1 variants were retired
  EXPECT_GT(shifted.decayRounds, 0u);

  // Steady state: the new hot set does not thrash.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(5, i), 5000 + i);
    ASSERT_EQ(fn(6, i), 6000 + i);
  }
  EXPECT_EQ(d.stats().demotions, shifted.demotions);
}

TEST(Dispatch, EpochBumpRetiresAndRespecializes) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);

  // A predicate change retires every variant immediately...
  d.bumpEpoch();
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.epoch(), 1u);
  EXPECT_EQ(d.stats().epochBumps, 1u);

  // ...while calls stay correct, and the previously hot keys come back as
  // the background batch completes (installed by the miss-path poller).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.variantCount() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(fn(1, 5), 1005);
    ASSERT_EQ(fn(2, 5), 2005);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(d.variantCount(), 2u);
  for (const VariantInfo& v : d.variants()) EXPECT_EQ(v.epoch, 1u);
}

TEST(Dispatch, AsyncSpecializationInstallsEventually) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.asyncSpecialize = true;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 0;
  while (d.variantCount() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(fn(9, i), 9000 + i);  // original until the worker installs
    ++i;
  }
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 9u);
  EXPECT_EQ(d.stats().promotions, 1u);
  ASSERT_EQ(fn(9, 1), 9001);
}

// g(n) = n + (n-1) + ... + 1. With n known and the per-address variant
// limit lifted, the tracer runs the whole loop as one block variant per
// iteration, so a cold rewrite for n = 16000 keeps a worker busy for tens
// of milliseconds.
ExecMemory buildCountdown() {
  jit::Assembler as;
  jit::Label loop = as.newLabel();
  as.movRegReg(Reg::rcx, Reg::rdi);
  as.movRegImm(Reg::rax, 0);
  as.bind(loop);
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rcx);
  as.aluRegImm(Mnemonic::Sub, Reg::rcx, 1);
  as.jcc(Cond::NE, loop);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

TEST(Dispatch, EpochBatchKeyInstallsOnce) {
  // A hot key whose epoch-batch item is still queued is in flight: misses
  // on it must not specialize it a second time, and the item installs once.
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  const DispatchOptions opt = fastOptions();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);
  const DispatchStats before = d.stats();

  // The one worker takes a slow cold rewrite first, so the epoch batch for
  // keys 1 and 2 waits in the queue behind it.
  ExecMemory countdown = buildCountdown();
  Config slow;
  slow.setParamKnown(0);
  slow.setReturnKind(ReturnKind::Int);
  slow.limits().maxVariantsPerAddress = 1 << 30;
  auto hold = manager.rewriteBatch(
      slow, {}, {{countdown.data(), {ArgValue::fromInt(16000)}}});
  d.bumpEpoch();
  for (uint64_t i = 0; i < opt.promoteThreshold; ++i)
    ASSERT_EQ(fn(1, static_cast<int64_t>(i)),
              1000 + static_cast<int64_t>(i));

  // Drain: the poller installs each batch item on a later miss.
  hold->wait();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.stats().pendingAsync > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(fn(1, 5), 1005);
    ASSERT_EQ(fn(2, 5), 2005);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(d.stats().pendingAsync, 0u);
  const DispatchStats after = d.stats();
  EXPECT_EQ(after.promotions - before.promotions, 2u);  // the batch's keys
  EXPECT_EQ(after.demotions - before.demotions, 2u);    // the bumped ones
  EXPECT_EQ(d.variantCount(), 2u);
}

TEST(Dispatch, SeedHotStartsInSteadyState) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());

  const uint64_t hot[] = {4, 11};
  d.seedHot(hot, 500);
  EXPECT_EQ(d.variantCount(), 2u);
  EXPECT_EQ(d.stats().promotions, 2u);

  auto fn = d.as<kernel_t>();
  EXPECT_EQ(fn(4, 3), 4003);
  EXPECT_EQ(fn(11, 3), 11003);
  EXPECT_EQ(fn(2, 3), 2003);  // cold key: original, still correct
}

TEST(Dispatch, PromoteThresholdFiltersColdKeys) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.maxVariants = 8;
  opt.sampleCalls = 100;
  opt.promoteThreshold = 50;  // half of the sampled calls
  opt.decayInterval = 1024;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Four keys at 25% each: none reaches the threshold.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(fn(i % 4, i), (i % 4) * 1000 + i);
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(fn(2, 5), 2005);

  // A key that does reach it is specialized.
  for (int i = 0; i < 50; ++i) ASSERT_EQ(fn(9, i), 9000 + i);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 9u);
}

TEST(Dispatch, FloatArgumentsSurviveMissPath) {
  // g(mode, x) = x * 2.0 + mode: the double in xmm0 must survive the miss
  // path's resolver call, both on the way to the original and to the
  // freshly promoted variant.
  jit::Assembler as;
  as.emit(isa::makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                         Operand::makeReg(Reg::xmm0)));
  as.emit(isa::makeInstr(Mnemonic::Cvtsi2sd, 8, Operand::makeReg(Reg::xmm1),
                         Operand::makeReg(Reg::rdi)));
  as.emit(isa::makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                         Operand::makeReg(Reg::xmm1)));
  as.ret();
  auto mem = as.finalizeExecutable();
  ASSERT_TRUE(mem.ok());

  using g_t = double (*)(int64_t, double);
  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, mem->data(), 0,
                      {ArgValue::fromInt(0), ArgValue::fromDouble(0.0)},
                      Config{}.setReturnKind(ReturnKind::Float),
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<g_t>();
  for (int i = 0; i < 20; ++i) {
    const double x = 1.25 + i;
    ASSERT_DOUBLE_EQ(fn(5, x), x * 2 + 5) << "call " << i;
  }
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 5u);
  EXPECT_DOUBLE_EQ(fn(5, -3.5), -2.0);
  EXPECT_DOUBLE_EQ(fn(2, 0.75), 3.5);  // cold key through the miss path
}

// AutoSpec.*: the profile-driven configuration of §III-D, an unseeded
// dispatcher whose miss path samples the key until its gate opens.
TEST(AutoSpec, SamplesThenSpecializes) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.sampleCalls = 50;
  opt.promoteThreshold = 10;
  opt.decayInterval = 1024;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Sampling phase: behaviour identical to the original, nothing promoted.
  for (int i = 0; i < 49; ++i) {
    const int64_t mode = (i % 10 < 7) ? 3 : 8;  // 70% mode 3, 30% mode 8
    ASSERT_EQ(fn(mode, i), mode * 1000 + i);
  }
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.stats().misses, 49u);

  // The 50th call opens the gate: the hottest sampled key is promoted.
  ASSERT_EQ(fn(3, 7), 3007);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 3u);
  // The next miss on the other sampled key promotes it too.
  ASSERT_EQ(fn(8, 7), 8007);
  EXPECT_EQ(d.variantCount(), 2u);

  // Dispatching phase: hot keys hit variants, a cold key still computes
  // correctly through the original and does not enter the full table.
  EXPECT_EQ(fn(3, 11), 3011);
  EXPECT_EQ(fn(8, 11), 8011);
  EXPECT_EQ(fn(5, 11), 5011);
  EXPECT_EQ(d.variantCount(), 2u);
}

TEST(AutoSpec, ManualFinalize) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.sampleCalls = 1000000;  // would never open on its own
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(fn(42, i), 42000 + i);
  EXPECT_EQ(d.variantCount(), 0u);

  // Phase boundary: hand over the hot key collected so far.
  const uint64_t hot[] = {42};
  d.seedHot(hot, 10);
  EXPECT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(fn(42, 1), 42001);
  EXPECT_EQ(fn(7, 1), 7001);

  // The seeded key occupies an inline way: its calls stop reaching the
  // resolver, so the sampling counters freeze.
  const DispatchStats before = d.stats();
  for (int i = 0; i < 20; ++i) ASSERT_EQ(fn(42, i), 42000 + i);
  const DispatchStats after = d.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.tableHits, before.tableHits);
}

// The fixed guard of §III-D: a seeded variant set that never adapts.
DispatchOptions fixedSeedOptions(size_t maxVariants) {
  DispatchOptions opt = fastOptions();
  opt.maxVariants = maxVariants;
  opt.promoteThreshold = UINT64_MAX;
  return opt;
}

TEST(Dispatch, SeededScoreSurvivesStubHits) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fixedSeedOptions(1));
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {5};
  d.seedHot(seeds, 0);
  ASSERT_EQ(d.variantCount(), 1u);
  ASSERT_TRUE(d.variants()[0].inlineCached);

  // The stub increments the seeded score on every hit; it must not wrap.
  const uint64_t before = d.variants()[0].hits;
  auto fn = d.as<kernel_t>();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(fn(5, i), 5000 + i);
  EXPECT_GE(d.variants()[0].hits, before);
}

// Guard.*: the fixed guard of §III-D as a seeded dispatcher over the
// counting kernel. Counting is switched on only while a test observes it.
struct CountOriginalCalls {
  CountOriginalCalls() {
    g_originalCalls = 0;
    g_countOriginal = 1;
  }
  ~CountOriginalCalls() { g_countOriginal = 0; }
};

Config countingConfig() {
  return Config{}.addKnownRegion(&g_countOriginal, sizeof g_countOriginal);
}

constexpr uint64_t kLargeKey = 0x123456789ABCDEFull;  // beyond imm32

TEST(Guard, DispatchesToVariants) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();

  // Six seeds behind four inline ways: the rest are resolver table hits.
  const uint64_t seeds[] = {1, 2, 7, 40, 41, kLargeKey};
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(),
                      countingConfig(), fixedSeedOptions(6));
  ASSERT_TRUE(d.valid());
  d.seedHot(seeds, 0);
  ASSERT_EQ(d.stats().promotions, 6u);
  ASSERT_EQ(d.variantCount(), 6u);

  CountOriginalCalls counting;
  auto fn = d.as<kernel_t>();
  for (int round = 0; round < 4; ++round)
    for (const uint64_t key : seeds)
      ASSERT_EQ(fn(static_cast<int64_t>(key), round), expectKernel(key, round));
  EXPECT_GT(d.stats().tableHits, 0u);
  EXPECT_EQ(g_originalCalls, 0);  // every seeded call ran a variant
  // Unseeded keys reach the original code.
  EXPECT_EQ(fn(3, 5), 3005);
  EXPECT_EQ(fn(-4, 5), -3995);
  EXPECT_EQ(g_originalCalls, 2);
}

TEST(Guard, FallbackToOriginalObserved) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(),
                      countingConfig(), fixedSeedOptions(2));
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {1};
  d.seedHot(seeds, 0);

  // Unseeded keys, called well past sampleCalls: every call reaches the
  // original and none is ever specialized.
  CountOriginalCalls counting;
  auto fn = d.as<kernel_t>();
  int64_t coldCalls = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(fn(2, i), 2000 + i);
    ASSERT_EQ(fn(9, i), 9000 + i);
    coldCalls += 2;
  }
  EXPECT_EQ(g_originalCalls, coldCalls);
  EXPECT_EQ(d.stats().promotions, 1u);
  EXPECT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(fn(1, 5), 1005);  // the seeded key still runs its variant
  EXPECT_EQ(g_originalCalls, coldCalls);
}

TEST(Guard, LargeGuardValues) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(),
                      countingConfig(), fixedSeedOptions(1));
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {kLargeKey};
  d.seedHot(seeds, 0);
  ASSERT_EQ(d.variantCount(), 1u);

  // The stub compares the full 64-bit key: neighbours that agree in the
  // low 32 bits (or differ only there) reach the original.
  CountOriginalCalls counting;
  auto fn = d.as<kernel_t>();
  EXPECT_EQ(fn(static_cast<int64_t>(kLargeKey), 7), expectKernel(kLargeKey, 7));
  EXPECT_EQ(g_originalCalls, 0);
  const uint64_t neighbours[] = {kLargeKey - 1, kLargeKey & 0xFFFFFFFFull, 42};
  for (const uint64_t key : neighbours)
    EXPECT_EQ(fn(static_cast<int64_t>(key), 7), expectKernel(key, 7));
  EXPECT_EQ(g_originalCalls, 3);
}

TEST(Guard, SecondIntegerParameter) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();
  // The key is the second argument (rsi).
  VariantDispatcher d(manager, kernel.data(), 1, protoArgs(),
                      countingConfig(), fixedSeedOptions(1));
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {10};
  d.seedHot(seeds, 0);
  ASSERT_EQ(d.variantCount(), 1u);

  CountOriginalCalls counting;
  auto fn = d.as<kernel_t>();
  EXPECT_EQ(fn(50, 10), 50010);  // specialized (x baked as 10)
  EXPECT_EQ(g_originalCalls, 0);
  for (int i = 0; i < 20; ++i) ASSERT_EQ(fn(50, 20), 50020);  // original
  EXPECT_EQ(g_originalCalls, 20);
  EXPECT_EQ(d.variantCount(), 1u);
}

TEST(Guard, InvalidParameterRejected) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  // A float-class key cannot be guarded: the dispatcher stays invalid and
  // seeding it installs nothing.
  VariantDispatcher d(manager, kernel.data(), 0,
                      {ArgValue::fromDouble(1.0), ArgValue::fromInt(0)},
                      Config{}, fixedSeedOptions(1));
  EXPECT_FALSE(d.valid());
  const uint64_t seeds[] = {1};
  d.seedHot(seeds, 0);
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.entry(), kernel.data());
}

TEST(Dispatch, InvalidKeyParameterFallsBackToOriginal) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  // A float-class key parameter cannot drive the integer-compare stub.
  VariantDispatcher d(manager, kernel.data(), 0,
                      {ArgValue::fromDouble(0.0), ArgValue::fromInt(0)},
                      Config{}, fastOptions());
  EXPECT_FALSE(d.valid());
  EXPECT_EQ(d.entry(), kernel.data());  // entry degrades to the original
  EXPECT_EQ(d.variantCount(), 0u);

  // Same for an out-of-range parameter index.
  VariantDispatcher d2(manager, kernel.data(), 5, protoArgs(), Config{},
                       fastOptions());
  EXPECT_FALSE(d2.valid());
  EXPECT_EQ(d2.entry(), kernel.data());
}

// Keys 1-4 are call-hot and own the four inline ways; key 8 is promoted to
// a variant but stays call-cold (one call in nine, half a hot key's rate),
// so it cannot displace an incumbent by calls.
constexpr uint64_t kCallHot[] = {1, 2, 3, 4};
constexpr uint64_t kCallCold = 8;

DispatchOptions callHotAndColdOptions() {
  DispatchOptions opt = fastOptions();
  opt.maxVariants = 5;
  return opt;
}

void warmCallHotAndCold(kernel_t fn) {
  for (int i = 0; i < 200; ++i)
    for (const uint64_t key : kCallHot)
      ASSERT_EQ(fn(static_cast<int64_t>(key), i), expectKernel(key, i));
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(fn(kCallCold, i), expectKernel(kCallCold, i));
    for (int j = 0; j < 2; ++j)
      for (const uint64_t key : kCallHot)
        ASSERT_EQ(fn(static_cast<int64_t>(key), j), expectKernel(key, j));
  }
}

// Inline ways follow calls: a stub way saves the resolver's per-call cost,
// whatever the variant's run time. Key 8 stays out of the ways while it is
// call-cold; once it is call-hot and key 1 goes quiet, the two swap within
// two decay windows and key 1 keeps its (table-served) variant.
TEST(Dispatch, InlineWaysFollowCalls) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  const DispatchOptions opt = callHotAndColdOptions();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      opt);
  ASSERT_TRUE(d.valid());
  ASSERT_NO_FATAL_FAILURE(warmCallHotAndCold(d.as<kernel_t>()));
  ASSERT_EQ(d.variantCount(), 5u);
  for (const VariantInfo& v : d.variants())
    EXPECT_EQ(v.inlineCached, v.key != kCallCold) << "key " << v.key;

  // Key 8 takes key 1's place in the call mix: a quarter of all calls.
  auto swapped = [&] {
    bool coldInline = false;
    bool oneInline = true;
    for (const VariantInfo& v : d.variants()) {
      if (v.key == kCallCold) coldInline = v.inlineCached;
      if (v.key == kCallHot[0]) oneInline = v.inlineCached;
    }
    return coldInline && !oneInline;
  };
  auto fn = d.as<kernel_t>();
  const uint64_t shifted[] = {kCallCold, kCallHot[1], kCallHot[2],
                              kCallHot[3]};
  uint64_t calls = 0;
  for (int i = 0; !swapped() && calls < 100 * opt.decayInterval; ++i) {
    for (const uint64_t key : shifted)
      ASSERT_EQ(fn(static_cast<int64_t>(key), i), expectKernel(key, i));
    calls += std::size(shifted);
  }
  EXPECT_LE(calls, 2 * opt.decayInterval);
  EXPECT_TRUE(swapped());
  EXPECT_EQ(d.variantCount(), 5u);
}

// The sampling profiler is observability only: CPU samples attributed to
// a call-cold variant's code do not move it into an inline way.
TEST(Dispatch, ProfileSamplesIgnoredWithoutProfileGuided) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      callHotAndColdOptions());
  ASSERT_TRUE(d.valid());
  ASSERT_NO_FATAL_FAILURE(warmCallHotAndCold(d.as<kernel_t>()));
  ASSERT_EQ(d.variantCount(), 5u);

  const void* coldEntry = nullptr;
  for (const VariantInfo& v : d.variants()) {
    if (v.key == kCallCold) coldEntry = v.entry;
  }
  ASSERT_NE(coldEntry, nullptr);

  // The samples reach the profiler and resolve to brew-owned code.
  const uint64_t brewBefore = prof::profileSnapshot().brewSamples;
  for (int i = 0; i < 1000; ++i)
    prof::injectSampleForTest(reinterpret_cast<uint64_t>(coldEntry));
  prof::drainSamplesNow();
  EXPECT_GE(prof::profileSnapshot().brewSamples, brewBefore + 1000);

  // The next resolver event leaves the ways as calls placed them.
  auto fn = d.as<kernel_t>();
  ASSERT_EQ(fn(5, 1), 5001);
  for (const VariantInfo& v : d.variants())
    EXPECT_EQ(v.inlineCached, v.key != kCallCold) << "key " << v.key;
}

// Decay windows count calls, stub hits included. With the default options
// each new hot key earns its variant inside two windows of a hot-set shift.
TEST(Dispatch, HotSetShiftAdaptsWithinTwoWindows) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();
  const DispatchOptions opt;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(),
                      countingConfig(), opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // 12 keys: 94% of calls on a hot set of 3, the rest uniform over all.
  constexpr uint64_t kKeys = 12;
  constexpr uint64_t kHot = 3;
  uint32_t rng = 0x9e3779b9;
  auto draw = [&](uint64_t hotBase) -> uint64_t {
    rng = rng * 1664525u + 1013904223u;
    return (rng >> 8) % 100 < 94 ? hotBase + (rng >> 24) % kHot : rng % kKeys;
  };
  auto hotSetLive = [&](uint64_t hotBase) {
    uint64_t live = 0;
    for (const VariantInfo& v : d.variants())
      if (v.key >= hotBase && v.key < hotBase + kHot) ++live;
    return live == kHot;
  };
  int64_t x = 0;
  auto call = [&](uint64_t key) {
    const int64_t got = fn(static_cast<int64_t>(key), x);
    return got == expectKernel(key, x++);
  };

  for (uint64_t i = 0; i < 20 * opt.decayInterval; ++i)
    ASSERT_TRUE(call(draw(0)));
  ASSERT_TRUE(hotSetLive(0));

  // Shift the hot set to keys 6-8.
  uint64_t calls = 0;
  while (!hotSetLive(6) && calls < 20 * opt.decayInterval) {
    ASSERT_TRUE(call(draw(6)));
    ++calls;
  }
  EXPECT_LE(calls, 2 * opt.decayInterval);

  // The new hot keys run their variants, not the original.
  CountOriginalCalls counting;
  for (uint64_t key = 6; key < 6 + kHot; ++key) ASSERT_TRUE(call(key));
  EXPECT_EQ(g_originalCalls, 0);
}

// The default table holds more variants than a 12-key set has keys: a key
// that has been hot once keeps its variant after the hot set moves on,
// instead of running the original until it is hot again.
TEST(Dispatch, EveryOnceHotKeyKeepsItsVariant) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildCountingKernel();
  const DispatchOptions opt;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(),
                      countingConfig(), opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Hot sets 0-2, 3-5, 6-8, 9-11, each for eight windows.
  constexpr uint64_t kKeys = 12;
  constexpr uint64_t kHot = 3;
  int64_t x = 0;
  for (uint64_t hotBase = 0; hotBase < kKeys; hotBase += kHot) {
    for (uint64_t i = 0; i < 8 * opt.decayInterval; ++i, ++x) {
      const uint64_t key = hotBase + i % kHot;
      ASSERT_EQ(fn(static_cast<int64_t>(key), x), expectKernel(key, x));
    }
  }

  CountOriginalCalls counting;
  for (uint64_t key = 0; key < kKeys; ++key, ++x)
    ASSERT_EQ(fn(static_cast<int64_t>(key), x), expectKernel(key, x));
  EXPECT_EQ(g_originalCalls, 0);
  EXPECT_EQ(d.variantCount(), kKeys);
}

// A run served entirely by the stub passes many windows with no resolver
// event. The first miss after it must age the incumbents' scores as that
// many rounds would have, or their stub hits would defend the slots.
TEST(Dispatch, StubOnlyRunAgesScores) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt;
  opt.maxVariants = 2;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  for (int i = 0; i < static_cast<int>(opt.sampleCalls); ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);
  for (const VariantInfo& v : d.variants()) ASSERT_TRUE(v.inlineCached);

  // 100k calls on the two inline ways: no resolver event at all.
  const DispatchStats before = d.stats();
  for (int i = 0; i < 50000; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  const DispatchStats after = d.stats();
  ASSERT_EQ(after.tableHits + after.misses, before.tableHits + before.misses);

  // Shift to keys 5 and 6: both go live within two windows.
  auto shifted = [&] {
    std::set<uint64_t> keys;
    for (const VariantInfo& v : d.variants()) keys.insert(v.key);
    return keys == std::set<uint64_t>{5, 6};
  };
  uint64_t calls = 0;
  for (int i = 0; !shifted() && calls < 100000; ++i, calls += 2) {
    ASSERT_EQ(fn(5, i), 5000 + i);
    ASSERT_EQ(fn(6, i), 6000 + i);
  }
  EXPECT_LE(calls, 2 * opt.decayInterval);
}

// A hot key whose rewrite always fails is retried only after 2^k decay
// rounds, not traced again every round.
TEST(Dispatch, FailingKeyRetriesBackOff) {
  // "rdtsc; mov rax, rdi; ret": the tracer rejects rdtsc, so every rewrite
  // fails; the original returns its key.
  static const uint8_t rdtsc[] = {0x0f, 0x31};
  jit::Assembler as;
  as.emitBytes(rdtsc);
  as.movRegReg(Reg::rax, Reg::rdi);
  as.ret();
  auto subject = as.finalizeExecutable();
  ASSERT_TRUE(subject.ok());
  using telemetry::counter;
  using telemetry::CounterId;
  const uint64_t failures0 =
      counter(CounterId::DispatchVariantFailures).value();

  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, subject->data(), 0, {ArgValue::fromInt(0)},
                      Config{}, DispatchOptions{});
  ASSERT_TRUE(d.valid());
  auto fn = d.as<int64_t (*)(int64_t)>();
  for (int i = 0; i < 100000; ++i) ASSERT_EQ(fn(5), 5);

  const uint64_t failures =
      counter(CounterId::DispatchVariantFailures).value() - failures0;
  EXPECT_GE(failures, 1u);
  EXPECT_LE(failures, 20u);
  EXPECT_EQ(d.variantCount(), 0u);
}

TEST(DispatchRegistry, AggregateAndWithDispatcher) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory hotKernel = buildKernel(1000);
  ExecMemory coldKernel = buildKernel(3);
  VariantDispatcher hot(manager, hotKernel.data(), 0, protoArgs(), Config{},
                        fastOptions());
  VariantDispatcher cold(manager, coldKernel.data(), 0, protoArgs(), Config{},
                         fastOptions());
  ASSERT_TRUE(hot.valid());
  ASSERT_TRUE(cold.valid());

  auto hotFn = hot.as<kernel_t>();
  auto coldFn = cold.as<kernel_t>();
  for (int i = 0; i < 300; ++i) ASSERT_EQ(hotFn(2, i), 2000 + i);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(coldFn(2, i), 6 + i);

  size_t functions = 0;
  const DispatchStats total = VariantDispatcher::aggregate(&functions);
  EXPECT_EQ(functions, 2u);
  EXPECT_GE(total.variantsLive, 1u);
  EXPECT_GT(total.variantHits + total.tableHits + total.misses, 0u);

  // The registry is keyed by subject, not by stub entry.
  for (VariantDispatcher* want : {&hot, &cold}) {
    bool saw = false;
    EXPECT_TRUE(VariantDispatcher::withDispatcher(
        want->subject(), [&](VariantDispatcher& d) {
          saw = true;
          EXPECT_EQ(&d, want);
        }));
    EXPECT_TRUE(saw);
  }
  EXPECT_FALSE(VariantDispatcher::withDispatcher(
      hot.entry(), [](VariantDispatcher&) {}));
  EXPECT_FALSE(VariantDispatcher::withDispatcher(
      &functions, [](VariantDispatcher&) {}));
}

// Multi-thread hammer: concurrent callers across a churning key set while
// another thread bumps the epoch. Every call must stay correct; the TSan
// build (`ctest -L concurrency` in build-tsan/) must stay silent.
TEST(DispatchHammer, ConcurrentMixedKeysWithEpochBumps) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt;
  opt.maxVariants = 4;
  opt.sampleCalls = 16;
  opt.promoteThreshold = 4;
  opt.decayInterval = 64;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 3000;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int64_t mode = (i * 7 + t) % 6;
        if (fn(mode, i) != mode * 1000 + i)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int bump = 0; bump < 3; ++bump) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    d.bumpEpoch();
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_LE(d.variantCount(), 4u);
  const DispatchStats s = d.stats();
  EXPECT_EQ(s.epochBumps, 3u);
  EXPECT_GT(s.tableHits + s.misses, 0u);
}

}  // namespace
}  // namespace brew
