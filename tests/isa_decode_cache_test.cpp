// Decode-cache invalidation: cached decodes must never outlive the bytes
// they were decoded from. Code mutates through exactly two doors —
// ExecMemory::makeWritable() (in-place patching) and mapping release with
// address reuse — and both bump the code-mutation epoch the cache polls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/rewriter.hpp"
#include "isa/decode_cache.hpp"
#include "jit/assembler.hpp"
#include "support/exec_memory.hpp"

namespace brew {
namespace {

using isa::Mnemonic;
using isa::Reg;

// Builds `mov eax, imm32; ret` into exec memory via the assembler.
ExecMemory makeConstFn(int32_t imm) {
  jit::Assembler as;
  as.movRegImm(Reg::rax, imm, 4);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

int64_t decodedImmAt(uint64_t address) {
  isa::DecodeSession session;
  auto decoded = session.at(address);
  if (!decoded.ok() || !(*decoded)->op(1).isImm()) return INT64_MIN;
  return (*decoded)->op(1).imm;
}

TEST(DecodeCache, RepeatDecodesHitTheCache) {
  ExecMemory fn = makeConstFn(7);
  const auto addr = reinterpret_cast<uint64_t>(fn.data());
  ASSERT_EQ(decodedImmAt(addr), 7);
  const uint64_t hitsBefore = isa::decodeCacheThreadStats().hits;
  ASSERT_EQ(decodedImmAt(addr), 7);
  EXPECT_GT(isa::decodeCacheThreadStats().hits, hitsBefore);
}

TEST(DecodeCache, PatchThroughMakeWritableInvalidates) {
  ExecMemory fn = makeConstFn(111);
  const auto addr = reinterpret_cast<uint64_t>(fn.data());
  ASSERT_EQ(decodedImmAt(addr), 111);
  ASSERT_EQ(fn.entry<int32_t (*)()>()(), 111);

  // Patch the mov immediate in place: mov eax, imm32 is b8 ii ii ii ii.
  ASSERT_TRUE(fn.makeWritable().ok());
  const int32_t patched = 222;
  std::memcpy(fn.writeView() + 1, &patched, sizeof patched);
  ASSERT_TRUE(fn.finalize().ok());

  EXPECT_EQ(decodedImmAt(addr), 222) << "stale decode served after patch";
  EXPECT_EQ(fn.entry<int32_t (*)()>()(), 222);
}

TEST(DecodeCache, AddressReuseAfterFreeInvalidates) {
  // Drop-and-reallocate until an address repeats (the release pool makes
  // this happen on the first try; a few rounds guard against pool misses).
  for (int attempt = 0; attempt < 8; ++attempt) {
    ExecMemory first = makeConstFn(1000 + attempt);
    const auto addr = reinterpret_cast<uint64_t>(first.data());
    ASSERT_EQ(decodedImmAt(addr), 1000 + attempt);
    first = ExecMemory();  // release: epoch bump + possible pool park

    ExecMemory second = makeConstFn(2000 + attempt);
    if (reinterpret_cast<uint64_t>(second.data()) != addr) continue;
    EXPECT_EQ(decodedImmAt(addr), 2000 + attempt)
        << "stale decode served from a recycled address";
    return;
  }
  GTEST_SKIP() << "allocator never reused an address";
}

// The A3 composability path: generated code is itself the subject of the
// next rewrite, so stage 2 must trace the stage-1 bytes actually installed
// now, never a cached decode of what a previous occupant of the address
// looked like.
__attribute__((noinline)) int64_t affine(int64_t a, int64_t b, int64_t x) {
  return a * x + b;
}

TEST(DecodeCache, RecursiveRewriteTracesFreshStageOneBytes) {
  using fn_t = int64_t (*)(int64_t, int64_t, int64_t);
  for (int round = 0; round < 3; ++round) {
    // Stage 1: bake a and b. Different values each round, so if stage 2
    // ever decoded stale stage-1 bytes the results would disagree.
    const int64_t a = 3 + round, b = 40 - round;
    Config c1;
    c1.setParamKnown(0);
    c1.setParamKnown(1);
    Rewriter r1{c1};
    auto stage1 = r1.rewrite(reinterpret_cast<const void*>(&affine), a, b,
                             int64_t{0});
    ASSERT_TRUE(stage1.ok()) << stage1.error().message();
    ASSERT_EQ(stage1->as<fn_t>()(0, 0, 5), a * 5 + b);

    // Stage 2: rewrite the stage-1 output, baking x too.
    Config c2;
    c2.setParamKnown(2);
    Rewriter r2{c2};
    auto stage2 =
        r2.rewrite(stage1->entry(), int64_t{0}, int64_t{0}, int64_t{7});
    ASSERT_TRUE(stage2.ok()) << stage2.error().message();
    EXPECT_EQ(stage2->as<fn_t>()(0, 0, 0), a * 7 + b);
    // Handles drop here; the next round's stage 1 may land on the same
    // addresses with different constants baked in.
  }
}

// 8 threads rewriting and freeing concurrently: thread-local caches, a
// shared mutation ring, and recycled addresses. Run under the concurrency
// label (and TSan via check_telemetry_tsan's -L concurrency pass).
TEST(DecodeCacheConcurrency, EightThreadRewriteFreeHammer) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int i = 0; i < kRounds; ++i) {
        const int32_t imm = t * 1000 + i;
        ExecMemory fn = makeConstFn(imm);
        const auto addr = reinterpret_cast<uint64_t>(fn.data());
        if (decodedImmAt(addr) != imm) failures.fetch_add(1);
        if (fn.entry<int32_t (*)()>()() != imm) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace brew
