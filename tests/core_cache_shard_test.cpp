// Sharded-cache concurrency battery: multi-thread hammer over rewrite /
// hit / release / invalidate across shard boundaries, colliding keys racing
// through one hit slot, plus deterministic checks of the lock-free fast
// path and the single-shard control mode.
// Tagged with the `concurrency` ctest label and run under ThreadSanitizer
// by scripts/check_telemetry.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/code_cache.hpp"
#include "core/spec_manager.hpp"
#include "jit/assembler.hpp"
#include "support/epoch.hpp"

namespace brew {
namespace {

typedef int64_t (*const_t)(void);

// "mov rax, imm64; ret" — a distinct traceable subject per value, JIT-built
// so the test controls its lifetime (and can invalidate it by address).
ExecMemory buildConstFn(int64_t value) {
  jit::Assembler as;
  as.movRegImm(isa::Reg::rax, value);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

Config intConfig() {
  Config config;
  config.setReturnKind(ReturnKind::Int);
  return config;
}

TEST(CacheShardTest, FastpathServesRepeatHits) {
  SpecManager manager{SpecManager::Options{.workers = 1, .cacheShards = 16}};
  ExecMemory fn = buildConstFn(1234);
  const std::vector<ArgValue> none;

  auto first = manager.rewrite(intConfig(), PassOptions{}, fn.data(), none);
  ASSERT_TRUE(first.ok()) << first.error().message();
  auto second = manager.rewrite(intConfig(), PassOptions{}, fn.data(), none);
  ASSERT_TRUE(second.ok()) << second.error().message();

  EXPECT_EQ(first->entry(), second->entry());
  EXPECT_EQ(reinterpret_cast<const_t>(second->entry())(), 1234);
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.shards, 16u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // The repeat hit came from the seqlock table, not the shard mutex.
  EXPECT_EQ(stats.fastpathHits, 1u);
}

TEST(CacheShardTest, FastpathHitKeepsEntryFromEviction) {
  // A lock-free hit cannot move its entry in the shard's LRU list; the
  // eviction scan must still count it as a use. A and B fill a two-entry
  // budget, A is hit again, and C's insertion must evict B, not A.
  SpecManager manager{SpecManager::Options{.workers = 1, .cacheShards = 16}};
  ExecMemory a = buildConstFn(11);
  ExecMemory b = buildConstFn(22);
  ExecMemory c = buildConstFn(33);
  const std::vector<ArgValue> none;
  auto rewrite = [&](const ExecMemory& fn) {
    auto result = manager.rewrite(intConfig(), PassOptions{}, fn.data(), none);
    EXPECT_TRUE(result.ok()) << result.error().message();
  };

  rewrite(a);
  // Every entry of these subjects maps the same number of bytes.
  manager.cache().setByteBudget(2 * manager.cache().stats().codeBytes);
  rewrite(b);
  rewrite(a);
  // Had A and B collided in the hit table, A's hit went through its shard,
  // which touches it as well; the outcome below is the same.
  rewrite(c);
  CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);

  rewrite(a);
  EXPECT_EQ(manager.cache().stats().misses, 3u) << "A was evicted";
  rewrite(b);
  EXPECT_EQ(manager.cache().stats().misses, 4u) << "B was kept";
}

TEST(CacheShardTest, SingleShardControlDisablesFastpath) {
  // cacheShards = 1 is the A/B control: one lock, no hit table,
  // pre-sharding behavior.
  SpecManager manager{SpecManager::Options{.workers = 1, .cacheShards = 1}};
  ExecMemory fn = buildConstFn(77);
  const std::vector<ArgValue> none;

  for (int i = 0; i < 3; ++i) {
    auto result = manager.rewrite(intConfig(), PassOptions{}, fn.data(), none);
    ASSERT_TRUE(result.ok()) << result.error().message();
    EXPECT_EQ(reinterpret_cast<const_t>(result->entry())(), 77);
  }
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.fastpathHits, 0u);
}

TEST(CacheShardTest, TwelveThreadHammerKeepsInvariants) {
  constexpr int kThreads = 12;
  constexpr int kFns = 32;
  constexpr int kIters = 400;
  constexpr int64_t kBase = 1000;

  std::vector<ExecMemory> fns;
  fns.reserve(kFns);
  for (int i = 0; i < kFns; ++i) fns.push_back(buildConstFn(kBase + i));

  SpecManager manager{SpecManager::Options{.workers = 2}};
  const Config config = intConfig();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> calls{0};
  std::vector<std::vector<std::pair<int, CodeHandle>>> retained(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = retained[static_cast<size_t>(t)];
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 7 + i) % kFns;
        auto result =
            manager.rewrite(config, PassOptions{}, fns[k].data(), {});
        calls.fetch_add(1);
        ASSERT_TRUE(result.ok()) << result.error().message();
        ASSERT_EQ(reinterpret_cast<const_t>(result->entry())(), kBase + k);
        if (i % 5 == t % 5) mine.emplace_back(k, *result);  // retain
        if (mine.size() > 16) mine.clear();                 // release burst
        if (i % 97 == 0)
          manager.cache().invalidateTarget(fns[k].data(), fns[k].size());
      }
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = manager.cache().stats();
  // Every rewrite call resolved to exactly one hit or one miss.
  EXPECT_EQ(stats.hits + stats.misses, calls.load());
  EXPECT_GT(stats.fastpathHits, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_LE(stats.codeBytes, stats.capacityBytes);

  // Handles retained across eviction/invalidation still hold live code.
  for (const auto& mine : retained)
    for (const auto& [k, handle] : mine) {
      ASSERT_TRUE(static_cast<bool>(handle));
      EXPECT_GE(handle.useCount(), 1u);
      EXPECT_EQ(reinterpret_cast<const_t>(handle.entry())(), kBase + k);
    }

  retained.clear();
  manager.cache().clear();
  EXPECT_EQ(manager.cache().stats().entries, 0u);
  EXPECT_EQ(manager.cache().stats().codeBytes, 0u);
  // Epoch-deferred blocks (published to the hit table, then dropped) all
  // reclaim once no reader is left.
  epoch::drain();
  EXPECT_EQ(epoch::pendingRetired(), 0u);
}

TEST(CacheShardTest, GlobalBudgetEnforcedAcrossShards) {
  constexpr int kThreads = 8;
  constexpr int kFns = 16;
  constexpr int kIters = 200;
  constexpr int64_t kBase = 5000;
  // A few dozen bytes of generated code per entry: this budget holds only
  // a handful of the 16 keys, forcing continuous cross-shard eviction.
  constexpr size_t kBudget = 256;

  std::vector<ExecMemory> fns;
  fns.reserve(kFns);
  for (int i = 0; i < kFns; ++i) fns.push_back(buildConstFn(kBase + i));

  SpecManager manager{
      SpecManager::Options{.workers = 1, .cacheBytes = kBudget}};
  const Config config = intConfig();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<std::pair<int, CodeHandle>>> retained(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = retained[static_cast<size_t>(t)];
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i * 3) % kFns;
        auto result =
            manager.rewrite(config, PassOptions{}, fns[k].data(), {});
        ASSERT_TRUE(result.ok()) << result.error().message();
        ASSERT_EQ(reinterpret_cast<const_t>(result->entry())(), kBase + k);
        if (i % 11 == 0) mine.emplace_back(k, *result);
        if (mine.size() > 8) mine.erase(mine.begin());
      }
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = manager.cache().stats();
  EXPECT_GT(stats.evictions, 0u);
  // The budget is one global atomic debited by every shard: at quiescence
  // the cache is within budget (or down to the single protected entry).
  EXPECT_TRUE(stats.codeBytes <= kBudget || stats.entries <= 1)
      << "codeBytes=" << stats.codeBytes << " entries=" << stats.entries;

  // Eviction never invalidated outstanding references.
  for (const auto& mine : retained)
    for (const auto& [k, handle] : mine)
      EXPECT_EQ(reinterpret_cast<const_t>(handle.entry())(), kBase + k);
}

TEST(CacheShardTest, CollidingKeysRaceThroughOneHitSlot) {
  // Keys that agree on fn, configFp and argsHash but not on their bytes:
  // a forced hash collision. They share one shard and one hit slot, and
  // every shard-path hit republishes the slot, so lock-free readers keep
  // finding the other keys' blocks there. No thread may ever be served
  // one.
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  constexpr int kIters = 2000;

  std::vector<CacheKey> keys(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    keys[k].fn = 0x4000;
    keys[k].configFp = 0x55;
    keys[k].argsHash = 0x77;
    keys[k].bytes.assign(24, 0xab);
    keys[k].bytes[16] = static_cast<uint8_t>(k);
  }
  CodeCache cache;
  std::atomic<const CodeBlock*> built[kKeys] = {};
  std::atomic<int> builds[kKeys] = {};
  std::atomic<int> wrong{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 3 + i) % kKeys;
        CodeHandle handle;
        if (i % 2 == 0) {
          auto result = cache.getOrBuild(keys[k], [&]() -> Result<CodeHandle> {
            builds[k].fetch_add(1);
            auto* block = new CodeBlock();
            built[k].store(block, std::memory_order_release);
            return CodeHandle::adopt(block);
          });
          ASSERT_TRUE(result.ok());
          handle = *result;
        } else {
          handle = cache.lookup(keys[k]);  // null only before the first build
          if (!handle) continue;
        }
        if (handle.get() != built[k].load(std::memory_order_acquire))
          wrong.fetch_add(1);
      }
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  for (int k = 0; k < kKeys; ++k) EXPECT_EQ(builds[k].load(), 1) << k;
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kKeys));
  EXPECT_GT(stats.fastpathHits, 0u);
  cache.clear();
  epoch::drain();
  EXPECT_EQ(epoch::pendingRetired(), 0u);
}

TEST(CacheShardTest, InvalidateRacesFastpathReaders) {
  // Maximize pressure on the seqlock + epoch reclamation path: readers spin
  // on one hot key while an invalidator repeatedly drops it.
  constexpr int kReaders = 6;
  constexpr int kReads = 2000;
  constexpr int kInvalidations = 300;

  ExecMemory fn = buildConstFn(424242);
  SpecManager manager{SpecManager::Options{.workers = 1}};
  const Config config = intConfig();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kReads; ++i) {
        auto result = manager.rewrite(config, PassOptions{}, fn.data(), {});
        ASSERT_TRUE(result.ok()) << result.error().message();
        ASSERT_EQ(reinterpret_cast<const_t>(result->entry())(), 424242);
      }
    });
  }
  threads.emplace_back([&] {
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < kInvalidations; ++i) {
      manager.cache().invalidateTarget(fn.data(), fn.size());
      std::this_thread::yield();
    }
  });
  while (ready.load() != kReaders + 1) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kReaders) * kReads);
  EXPECT_GE(stats.misses, 1u);
  epoch::drain();
  EXPECT_EQ(epoch::pendingRetired(), 0u);
}

TEST(CacheShardTest, RedistributedPointeesServeOwnedKeys) {
  // Domain-map-style redistribution: 8 threads rewrite through known
  // pointers to a few shared maps while other iterations rewrite the maps'
  // contents. Each thread's key lives in its own reused buffer; in-flight
  // waiters and shard lookups must compare against the builder's owned
  // copy, never that buffer (ThreadSanitizer reports a read of another
  // thread's buffer as a race). A small budget keeps keys missing,
  // evicting and hitting in turn. Every served entry must compute what the
  // original computes on the map's current contents.
  constexpr int kThreads = 8;
  constexpr int kMaps = 3;
  constexpr int kStates = 5;
  constexpr int kIters = 300;
  constexpr size_t kBudget = 256;

  // "rax = p[0] + p[3] + x": the known pointee folds into constants.
  jit::Assembler as;
  as.movRegMem(isa::Reg::rax, isa::MemOperand{.base = isa::Reg::rdi}, 8);
  as.movRegMem(isa::Reg::rcx,
               isa::MemOperand{.base = isa::Reg::rdi, .disp = 24}, 8);
  as.aluRegReg(isa::Mnemonic::Add, isa::Reg::rax, isa::Reg::rcx, 8);
  as.aluRegReg(isa::Mnemonic::Add, isa::Reg::rax, isa::Reg::rsi, 8);
  as.ret();
  auto fn = as.finalizeExecutable();
  ASSERT_TRUE(fn.ok()) << fn.error().message();
  typedef int64_t (*map_fn)(const int64_t*, int64_t);
  const auto original = reinterpret_cast<map_fn>(fn->data());

  struct Map {
    std::shared_mutex mu;  // shared: rewrite and call; unique: redistribute
    int64_t words[4] = {};
  };
  Map maps[kMaps];
  auto redistribute = [](Map& map, int state) {
    for (int w = 0; w < 4; ++w) map.words[w] = state * 1000 + w;
  };
  for (Map& map : maps) redistribute(map, 0);

  SpecManager manager{
      SpecManager::Options{.workers = 1, .cacheBytes = kBudget}};
  Config config;
  config.setParamKnownPtr(0, sizeof maps[0].words);
  config.setReturnKind(ReturnKind::Int);
  std::atomic<int> wrong{0};
  std::atomic<int> failed{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        Map& map = maps[(t + i) % kMaps];
        if ((i + t) % 7 == 0) {
          std::unique_lock<std::shared_mutex> lock(map.mu);
          redistribute(map, (i * 3 + t) % kStates);
          continue;
        }
        std::shared_lock<std::shared_mutex> lock(map.mu);
        const ArgValue args[] = {ArgValue::fromPtr(map.words),
                                 ArgValue::fromInt(static_cast<uint64_t>(i))};
        auto result = manager.rewrite(config, PassOptions{}, fn->data(), args);
        if (!result.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (reinterpret_cast<map_fn>(result->entry())(map.words, i) !=
            original(map.words, i))
          wrong.fetch_add(1);
      }
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  const CacheStats stats = manager.cache().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, static_cast<uint64_t>(kMaps));
  manager.cache().clear();
  epoch::drain();
  EXPECT_EQ(epoch::pendingRetired(), 0u);
}

}  // namespace
}  // namespace brew
