// Specialization cache tests: single-flight deduplication across threads,
// LRU eviction under a byte budget (with outstanding handles surviving),
// content-sensitive and exact (collision-proof) keying, and asynchronous
// install through SpecManager's batches and an async VariantDispatcher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/brew.h"
#include "core/code_cache.hpp"
#include "core/dispatch.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "jit/assembler.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

__attribute__((noinline)) int64_t triple(int64_t x) { return x * 3; }
typedef int64_t (*triple_t)(int64_t);

typedef int64_t (*load_t)(const int64_t*);

// "mov rax, [rdi]; ret" built directly — a compiled-C load would pick up
// sanitizer instrumentation the tracer cannot follow.
ExecMemory buildLoadThrough() {
  jit::Assembler as;
  as.movRegMem(isa::Reg::rax, isa::MemOperand{.base = isa::Reg::rdi}, 8);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

static_assert(!std::is_copy_constructible_v<RewrittenFunction>,
              "RewrittenFunction is move-only; share code via shareHandle()");
static_assert(std::is_move_constructible_v<RewrittenFunction>);
static_assert(std::is_copy_constructible_v<CodeHandle>,
              "CodeHandle copies retain");

Config knownFirstParam() {
  Config config;
  config.setParamKnown(0);
  config.setReturnKind(ReturnKind::Int);
  return config;
}

void noteGuest(uint64_t) {}

TEST(ConfigFingerprint, DeterministicAndShapeSensitive) {
  // One code-shaping field changed per row, against knownFirstParam() with
  // default passes. The argument list is one known integer, so every row
  // except the region row differs from the base in the configuration
  // section of the key alone.
  using Edit = void (*)(Config&, PassOptions&);
  static const int64_t data[2] = {11, 22};
  const struct {
    const char* name;
    Edit edit;
  } rows[] = {
      {"base", [](Config&, PassOptions&) {}},
      {"param known", [](Config& c, PassOptions&) { c.setParamKnown(1); }},
      {"param known float",
       [](Config& c, PassOptions&) { c.setParamKnown(1, true); }},
      {"param known ptr, size 0",
       [](Config& c, PassOptions&) { c.setParamKnownPtr(1, 0); }},
      {"param known ptr, size 16",
       [](Config& c, PassOptions&) { c.setParamKnownPtr(1, 16); }},
      {"param unknown", [](Config& c, PassOptions&) { c.setParamUnknown(1); }},
      {"param float", [](Config& c, PassOptions&) { c.setParamFloat(1); }},
      {"first param taken back",
       [](Config& c, PassOptions&) { c.setParamUnknown(0); }},
      {"known region",
       [](Config& c, PassOptions&) { c.addKnownRegion(data, sizeof data); }},
      {"function options",
       [](Config& c, PassOptions&) {
         c.setFunctionOptions(reinterpret_cast<void*>(&addmul), {});
       }},
      {"function options, other function",
       [](Config& c, PassOptions&) {
         c.setFunctionOptions(reinterpret_cast<void*>(&triple), {});
       }},
      {"function options, no inlining",
       [](Config& c, PassOptions&) {
         c.setFunctionOptions(reinterpret_cast<void*>(&addmul),
                              {.inlineCalls = false});
       }},
      {"default no inlining",
       [](Config& c, PassOptions&) {
         c.setDefaultFunctionOptions({.inlineCalls = false});
       }},
      {"default force unknown",
       [](Config& c, PassOptions&) {
         c.setDefaultFunctionOptions({.forceUnknownResults = true});
       }},
      {"default pure",
       [](Config& c, PassOptions&) {
         c.setDefaultFunctionOptions({.pure = true});
       }},
      {"fold zero accumulator off",
       [](Config& c, PassOptions&) { c.setFoldZeroAccumulator(false); }},
      {"return float",
       [](Config& c, PassOptions&) { c.setReturnKind(ReturnKind::Float); }},
      {"maxTraceSteps",
       [](Config& c, PassOptions&) { ++c.limits().maxTraceSteps; }},
      {"maxCodeBytes",
       [](Config& c, PassOptions&) { ++c.limits().maxCodeBytes; }},
      {"maxBlocks", [](Config& c, PassOptions&) { ++c.limits().maxBlocks; }},
      {"maxVariantsPerAddress",
       [](Config& c, PassOptions&) { ++c.limits().maxVariantsPerAddress; }},
      {"maxInlineDepth",
       [](Config& c, PassOptions&) { ++c.limits().maxInlineDepth; }},
      {"maxForkDepth",
       [](Config& c, PassOptions&) { ++c.limits().maxForkDepth; }},
      {"onEntry",
       [](Config& c, PassOptions&) { c.injection().onEntry = &noteGuest; }},
      {"onExit",
       [](Config& c, PassOptions&) { c.injection().onExit = &noteGuest; }},
      {"onLoad",
       [](Config& c, PassOptions&) { c.injection().onLoad = &noteGuest; }},
      {"onStore",
       [](Config& c, PassOptions&) { c.injection().onStore = &noteGuest; }},
      {"peephole off", [](Config&, PassOptions& p) { p.peephole = false; }},
      {"mergeBlocks off",
       [](Config&, PassOptions& p) { p.mergeBlocks = false; }},
      {"crossIterLoads off",
       [](Config&, PassOptions& p) { p.crossIterLoads = false; }},
      // The counts frame the variable-length parts. Without the declared
      // parameter count, these two would write the same words: parameter
      // words 1 (Known) and 0x10002 (KnownPtr of 1 byte) against an
      // option count of 1 and one entry at address 0x10002.
      {"framing: three declared parameters",
       [](Config& c, PassOptions&) {
         c.setParamKnown(1);
         c.setParamKnownPtr(2, 1);
       }},
      {"framing: one per-function entry",
       [](Config& c, PassOptions&) {
         c.setFunctionOptions(reinterpret_cast<void*>(0x10002),
                              {.inlineCalls = false});
       }},
  };
  const ArgValue args[] = {ArgValue::fromInt(3)};
  auto keyOf = [&](Edit edit) {
    Config config = knownFirstParam();
    PassOptions passes;
    edit(config, passes);
    // The writer fills exactly the size the key build reserves (one spare
    // word, so a word added without resizing fails here, not past the end).
    std::vector<uint8_t> section(config.keySectionBytes() + 8);
    EXPECT_EQ(config.writeKeySection(section.data(), 0) - section.data(),
              static_cast<ptrdiff_t>(config.keySectionBytes()));
    const CacheKey key =
        makeCacheKey(config, passes, reinterpret_cast<void*>(&addmul), args);
    EXPECT_EQ(key.configFp, configKeyHash(config, passes));
    return key;
  };
  std::vector<CacheKey> keys;
  for (const auto& row : rows) {
    keys.push_back(keyOf(row.edit));
    EXPECT_EQ(keyOf(row.edit), keys.back()) << row.name;  // deterministic
  }
  for (size_t i = 0; i < keys.size(); ++i)
    for (size_t j = 0; j < i; ++j)
      EXPECT_NE(keys[i].bytes, keys[j].bytes)
          << rows[i].name << " aliases " << rows[j].name;
}

TEST(CacheKeying, UnknownArgumentsShareOneEntry) {
  // Only known values reach the generated code, so rewrites differing in
  // unknown arguments must alias.
  const auto* fn = reinterpret_cast<void*>(&addmul);
  Config config;
  const ArgValue a[] = {ArgValue::fromInt(1), ArgValue::fromInt(2)};
  const ArgValue b[] = {ArgValue::fromInt(30), ArgValue::fromInt(40)};
  EXPECT_EQ(makeCacheKey(config, {}, fn, a), makeCacheKey(config, {}, fn, b));

  Config known = knownFirstParam();
  EXPECT_NE(makeCacheKey(known, {}, fn, a).bytes,
            makeCacheKey(known, {}, fn, b).bytes);

  // An unknown argument's class still moves the known one after it to
  // another ABI register, so it stays in the key.
  Config second;
  second.setParamKnown(1);
  const ArgValue floatFirst[] = {ArgValue::fromDouble(1.0),
                                 ArgValue::fromInt(2)};
  EXPECT_NE(makeCacheKey(second, {}, fn, a).bytes,
            makeCacheKey(second, {}, fn, floatFirst).bytes);
}

TEST(CacheKeying, CollidingKeysKeepTheirOwnBlocks) {
  // Two keys whose hashes all agree but whose bytes differ: a forced
  // argsHash collision. Identity must follow the bytes, on both paths.
  CacheKey a;
  a.fn = 0x1000;
  a.configFp = 7;
  a.argsHash = 42;
  a.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  CacheKey b = a;
  b.bytes[0] = 9;
  ASSERT_EQ(CacheKeyHash{}(a), CacheKeyHash{}(b));

  CodeCache cache;  // default shards: the lock-free hit table is in front
  int builds = 0;
  auto build = [&]() -> Result<CodeHandle> {
    ++builds;
    return CodeHandle::adopt(new CodeBlock());
  };
  auto builtA = cache.getOrBuild(a, build);
  auto builtB = cache.getOrBuild(b, build);
  ASSERT_TRUE(builtA.ok());
  ASSERT_TRUE(builtB.ok());
  EXPECT_EQ(builds, 2);
  const CodeBlock* blockA = builtA->get();
  const CodeBlock* blockB = builtB->get();
  EXPECT_NE(blockA, blockB);
  EXPECT_EQ(cache.getOrBuild(a, build)->get(), blockA);
  EXPECT_EQ(cache.getOrBuild(b, build)->get(), blockB);
  EXPECT_EQ(builds, 2);

  // Both keys share one hit slot, and each shard hit republishes its own
  // block there. So each key's first lookup finds the other key's block in
  // the slot and must fall through to its shard. The second lookup is a
  // fast-path hit.
  const std::pair<const CacheKey*, const CodeBlock*> expected[] = {
      {&a, blockA}, {&b, blockB}};
  for (const auto& [key, block] : expected) {
    const uint64_t fast0 = cache.stats().fastpathHits;
    EXPECT_EQ(cache.lookup(*key).get(), block);
    EXPECT_EQ(cache.stats().fastpathHits, fast0);  // shard path
    EXPECT_EQ(cache.lookup(*key).get(), block);
    EXPECT_EQ(cache.stats().fastpathHits, fast0 + 1);  // lock-free path
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(CacheKeying, HashSeesEveryByteAcrossTheLanes) {
  // A 2368-byte key (the size of the grouped stencil's): one known pointer
  // whose pointee fills the argument section. hashKeyBytes folds 64-byte
  // blocks in four lanes, then 16-byte steps, then the tail; a change to
  // any one byte must reach the hash wherever it falls.
  constexpr size_t kKeyBytes = 2368;
  Config config;
  config.setParamKnownPtr(0, 1);  // sized below, once the section is known
  // Argument section: count, tag, value, pointee, region count.
  const size_t pointee = kKeyBytes - config.keySectionBytes() - 32;
  config.setParamKnownPtr(0, pointee);
  std::vector<uint8_t> data(pointee);
  std::mt19937_64 rng(17);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng());
  const ArgValue args[] = {ArgValue::fromPtr(data.data())};
  const void* fn = reinterpret_cast<const void*>(&triple);
  const CacheKey key = makeCacheKey(config, {}, fn, args);
  ASSERT_EQ(key.bytes.size(), kKeyBytes);

  const size_t configBytes = config.keySectionBytes();
  std::vector<uint8_t> bytes = key.bytes;
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    const bool inConfig = offset < configBytes;
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      bytes[offset] ^= flip;
      const std::span<const uint8_t> all(bytes);
      if (inConfig)
        EXPECT_NE(hashKeyBytes(all.first(configBytes)), key.configFp)
            << "config byte " << offset;
      else
        EXPECT_NE(hashKeyBytes(all.subspan(configBytes)), key.argsHash)
            << "argument byte " << offset;
      bytes[offset] ^= flip;
    }
  }

  // One more zero word changes the hash: the length is folded in.
  std::vector<uint8_t> longer(key.bytes.begin() + configBytes,
                              key.bytes.end());
  longer.resize(longer.size() + 8, 0);
  EXPECT_NE(hashKeyBytes(longer), key.argsHash);

  // Every block/step/tail layout: each byte of each short length counts.
  for (size_t n = 8; n <= 256; n += 8) {
    std::vector<uint8_t> shortKey(data.begin(), data.begin() + n);
    const uint64_t h = hashKeyBytes(shortKey);
    for (size_t offset = 0; offset < n; ++offset) {
      shortKey[offset] ^= 0x01;
      EXPECT_NE(hashKeyBytes(shortKey), h) << n << " bytes, byte " << offset;
      shortKey[offset] ^= 0x01;
    }
  }

  // Each hash covers only its own section.
  data[pointee / 2] ^= 0x01;
  const CacheKey argEdit = makeCacheKey(config, {}, fn, args);
  data[pointee / 2] ^= 0x01;
  EXPECT_EQ(argEdit.configFp, key.configFp);
  EXPECT_NE(argEdit.argsHash, key.argsHash);
  Config limits = config;
  limits.limits().maxTraceSteps += 1;
  const CacheKey configEdit = makeCacheKey(limits, {}, fn, args);
  EXPECT_NE(configEdit.configFp, key.configFp);
  EXPECT_EQ(configEdit.argsHash, key.argsHash);
}

TEST(CacheKeying, ReusedBufferWritesTheSameKey) {
  // writeCacheKey reuses its buffer's capacity: a shorter key written over
  // a longer one must come out byte-for-byte as a fresh key, padding
  // included.
  const uint8_t pointee[5] = {1, 2, 3, 4, 5};  // 3 bytes of padding
  Config config;
  config.setParamKnownPtr(0, sizeof pointee);
  const ArgValue args[] = {ArgValue::fromPtr(pointee)};
  const void* fn = reinterpret_cast<const void*>(&triple);
  const CacheKey fresh = makeCacheKey(config, {}, fn, args);

  std::vector<uint8_t> buffer(fresh.bytes.size() + 64, 0xaa);
  const CacheKeyView view = writeCacheKey(config, {}, fn, args, buffer);
  EXPECT_EQ(view.bytes.data(), buffer.data());
  const CacheKey copied{
      view.fn, view.configFp, view.argsHash,
      std::vector<uint8_t>(view.bytes.begin(), view.bytes.end())};
  EXPECT_EQ(copied, fresh);
}

TEST(CodeCacheTest, EightThreadsSameKeyTraceOnce) {
  SpecManager manager;
  const Config config = knownFirstParam();
  const std::vector<ArgValue> args = {ArgValue::fromInt(42),
                                      ArgValue::fromInt(0)};

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<void*> entries(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto handle = manager.rewrite(config, PassOptions{},
                                    reinterpret_cast<const void*>(&addmul),
                                    args);
      ASSERT_TRUE(handle.ok()) << handle.error().message();
      entries[static_cast<size_t>(t)] = handle->entry();
      EXPECT_EQ(reinterpret_cast<addmul_t>(handle->entry())(1, 2),
                42 * 7 + 2);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : threads) t.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(entries[0], entries[t]);
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CodeCacheTest, RewriterAttachedToManagerHitsCache) {
  SpecManager manager;
  Rewriter rewriter{knownFirstParam(), manager};
  auto first = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 5, 0);
  ASSERT_TRUE(first.ok()) << first.error().message();
  auto second = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 5, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->entry(), second->entry());
  EXPECT_EQ(manager.cache().stats().misses, 1u);
  EXPECT_EQ(manager.cache().stats().hits, 1u);
  // Both RewrittenFunctions and the cache entry share one block.
  EXPECT_EQ(first->handle().useCount(), 3u);
}

TEST(CodeCacheTest, EvictionKeepsOutstandingHandlesExecutable) {
  SpecManager manager{SpecManager::Options{.workers = 1, .cacheBytes = 1}};
  Rewriter rewriter{knownFirstParam(), manager};

  auto first = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
  ASSERT_TRUE(first.ok()) << first.error().message();
  // Second key evicts the first (the 1-byte budget holds at most the
  // newest entry), but the held handle must stay executable.
  auto second = rewriter.rewrite(reinterpret_cast<const void*>(&triple), 4);
  ASSERT_TRUE(second.ok()) << second.error().message();

  const CacheStats stats = manager.cache().stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, 1u);
  EXPECT_EQ(first->as<addmul_t>()(1, 2), 9 * 7 + 2);
  EXPECT_EQ(second->as<triple_t>()(4), 12);

  // The evicted key now misses again.
  auto third = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(manager.cache().stats().misses, 3u);
}

TEST(CodeCacheTest, KnownPointeeContentChangesTheKey) {
  // The key hashes the bytes BEHIND a KnownPtr parameter: same pointer with
  // mutated contents is a different specialization (the PGAS domain-map
  // redistribution case).
  static int64_t cell = 100;
  ExecMemory loadThrough = buildLoadThrough();
  SpecManager manager;
  Config config;
  config.setParamKnownPtr(0, sizeof cell);
  config.setReturnKind(ReturnKind::Int);
  Rewriter rewriter{config, manager};

  auto first = rewriter.rewrite(loadThrough.data(), &cell);
  ASSERT_TRUE(first.ok()) << first.error().message();
  EXPECT_EQ(first->as<load_t>()(nullptr), 100);

  cell = 200;
  auto second = rewriter.rewrite(loadThrough.data(), &cell);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->as<load_t>()(nullptr), 200);
  EXPECT_EQ(manager.cache().stats().misses, 2u);
  EXPECT_EQ(manager.cache().stats().hits, 0u);
}

TEST(CodeCacheTest, FailuresAreNotCached) {
  static const uint8_t bogus[] = {0x0f, 0x31, 0xc3};  // rdtsc; ret
  SpecManager manager;
  const std::vector<ArgValue> none;
  for (int i = 0; i < 2; ++i) {
    auto result = manager.rewrite(Config{}, PassOptions{}, bogus, none);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(manager.cache().stats().misses, 2u);  // retried, not served
  EXPECT_EQ(manager.cache().stats().entries, 0u);
}

TEST(CodeCacheTest, HandleSurvivesCacheClear) {
  SpecManager manager;
  auto result =
      manager.rewrite(knownFirstParam(), PassOptions{},
                      reinterpret_cast<const void*>(&addmul),
                      std::vector<ArgValue>{ArgValue::fromInt(3),
                                            ArgValue::fromInt(0)});
  ASSERT_TRUE(result.ok()) << result.error().message();
  CodeHandle handle = *result;
  manager.cache().clear();
  EXPECT_EQ(manager.cache().stats().entries, 0u);
  EXPECT_EQ(handle.useCount(), 2u);  // `result` + `handle`, no cache ref
  EXPECT_EQ(reinterpret_cast<addmul_t>(handle.entry())(0, 5), 3 * 7 + 5);
}

// An asynchronous dispatcher that specializes its first missed key.
DispatchOptions asyncOnFirstMiss() {
  DispatchOptions options;
  options.sampleCalls = 1;
  options.promoteThreshold = 1;
  options.asyncSpecialize = true;
  return options;
}

TEST(SpecManagerAsync, InstallObservedBySpinningCaller) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  VariantDispatcher d(manager, reinterpret_cast<const void*>(&addmul), 0,
                      {ArgValue::fromInt(0), ArgValue::fromInt(0)},
                      knownFirstParam(), asyncOnFirstMiss());
  ASSERT_TRUE(d.valid());

  // Callable from the first instant: the original serves the calls until
  // the worker's variant installs. Spin until the switch.
  const addmul_t fn = d.as<addmul_t>();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.variantCount() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    ASSERT_EQ(fn(42, 2), 42 * 7 + 2);
  ASSERT_EQ(d.variantCount(), 1u);
  const VariantInfo variant = d.variants()[0];
  EXPECT_EQ(variant.key, 42u);
  EXPECT_GT(variant.codeBytes, 0u);

  // Specialized behavior after: the calls now run the variant.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(fn(42, i), 42 * 7 + i);
  EXPECT_EQ(d.variants()[0].hits, variant.hits + 100);
  // The stable stub entry does not move when the variant installs.
  EXPECT_EQ(reinterpret_cast<void*>(fn), d.entry());
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.asyncInstalls, 1u);
  EXPECT_GT(stats.asyncLatencyNsMax, 0u);
  EXPECT_GE(stats.asyncLatencyNsTotal, stats.asyncLatencyNsMax);
}

TEST(SpecManagerAsync, BatchItemsRecordInstallLatency) {
  using telemetry::counter;
  using telemetry::CounterId;
  telemetry::Histogram& installNs =
      telemetry::histogram(telemetry::HistogramId::AsyncInstallLatencyNs);
  const uint64_t installs0 = counter(CounterId::CacheAsyncInstalls).value();
  const uint64_t samples0 = installNs.count();

  SpecManager manager{SpecManager::Options{.workers = 2}};
  std::vector<RewriteItem> items;
  for (const int64_t a : {3, 4, 5})
    items.push_back({reinterpret_cast<const void*>(&addmul),
                     {ArgValue::fromInt(static_cast<uint64_t>(a)),
                      ArgValue::fromInt(0)}});
  auto batch =
      manager.rewriteBatch(knownFirstParam(), PassOptions{}, std::move(items));
  batch->wait();
  for (size_t i = 0; i < batch->size(); ++i)
    ASSERT_TRUE(batch->ok(i)) << batch->error(i).message();

  EXPECT_EQ(manager.cache().stats().asyncInstalls, 3u);
  EXPECT_EQ(counter(CounterId::CacheAsyncInstalls).value() - installs0, 3u);
  EXPECT_EQ(installNs.count() - samples0, 3u);
}

TEST(TelemetryMirror, RegistryCountersTrackCacheBehavior) {
  // Every per-instance CacheStats movement is mirrored into the global
  // telemetry registry (brew_telemetry_snapshot must agree with
  // brew_getcachestats), so deltas around a private cache's activity must
  // match its own stats exactly — gtest runs tests sequentially and no
  // async work is in flight here.
  using telemetry::counter;
  using telemetry::CounterId;
  const uint64_t hits0 = counter(CounterId::CacheHits).value();
  const uint64_t misses0 = counter(CounterId::CacheMisses).value();
  const uint64_t evictions0 = counter(CounterId::CacheEvictions).value();
  const uint64_t insertions0 = counter(CounterId::CacheInsertions).value();
  const int64_t bytes0 =
      telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value();

  {
    SpecManager manager{SpecManager::Options{.workers = 1, .cacheBytes = 1}};
    Rewriter rewriter{knownFirstParam(), manager};
    auto a = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
    ASSERT_TRUE(a.ok()) << a.error().message();
    auto hit = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
    ASSERT_TRUE(hit.ok());
    // Second key evicts the first under the 1-byte budget.
    auto b = rewriter.rewrite(reinterpret_cast<const void*>(&triple), 4);
    ASSERT_TRUE(b.ok()) << b.error().message();

    const CacheStats stats = manager.cache().stats();
    EXPECT_EQ(counter(CounterId::CacheHits).value() - hits0, stats.hits);
    EXPECT_EQ(counter(CounterId::CacheMisses).value() - misses0,
              stats.misses);
    EXPECT_EQ(counter(CounterId::CacheEvictions).value() - evictions0,
              stats.evictions);
    EXPECT_EQ(counter(CounterId::CacheInsertions).value() - insertions0,
              stats.insertions);
    EXPECT_EQ(
        telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value() - bytes0,
        static_cast<int64_t>(stats.codeBytes));
  }
  // Cache destruction returns the byte gauge to its starting level.
  EXPECT_EQ(telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value(),
            bytes0);
}

TEST(TelemetryMirror, KeyBuildSampledOneCallIn64) {
  // cache.key_ns times makeCacheKey on 1 rewrite() call in 64 per thread:
  // any 64 consecutive calls on one thread record exactly one sample.
  telemetry::Histogram& keyNs =
      telemetry::histogram(telemetry::HistogramId::CacheKeyNs);
  const uint64_t before = keyNs.count();
  SpecManager manager;
  const std::vector<ArgValue> args = {ArgValue::fromInt(3),
                                      ArgValue::fromInt(0)};
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(manager
                    .rewrite(knownFirstParam(), PassOptions{},
                             reinterpret_cast<const void*>(&addmul), args)
                    .ok());
  EXPECT_EQ(keyNs.count() - before, 1u);
  EXPECT_STREQ(telemetry::histogramName(telemetry::HistogramId::CacheKeyNs),
               "cache.key_ns");
}

TEST(TelemetryMirror, CapiSnapshotAgreesWithCacheStats) {
  // The acceptance contract: the "cache.*" counters seen through
  // brew_telemetry_snapshot track the same events as brew_getcachestats on
  // the process-wide cache. Compare deltas across a forced miss + hit.
  auto capiCounter = [](const char* name) -> uint64_t {
    brew_telemetry snap{};
    brew_telemetry_snapshot(&snap);
    for (size_t i = 0; i < snap.counter_count; ++i)
      if (std::strcmp(snap.counters[i].name, name) == 0)
        return snap.counters[i].value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };

  brew_cache_stats before{};
  brew_getcachestats(&before);
  const uint64_t hits0 = capiCounter("cache.hits");
  const uint64_t misses0 = capiCounter("cache.misses");

  SpecManager& process = SpecManager::process();
  const std::vector<ArgValue> args = {ArgValue::fromInt(77),
                                      ArgValue::fromInt(0)};
  for (int i = 0; i < 2; ++i) {
    auto result = process.rewrite(knownFirstParam(), PassOptions{},
                                  reinterpret_cast<const void*>(&addmul),
                                  args);
    ASSERT_TRUE(result.ok()) << result.error().message();
  }

  brew_cache_stats after{};
  brew_getcachestats(&after);
  EXPECT_EQ(capiCounter("cache.hits") - hits0, after.hits - before.hits);
  EXPECT_EQ(capiCounter("cache.misses") - misses0,
            after.misses - before.misses);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

TEST(SpecManagerAsync, FailedAsyncKeepsOriginalEntry) {
  // "rdtsc; mov rax, rdi; ret": the tracer rejects rdtsc, so the variant's
  // item fails on the worker; the original returns its key.
  static const uint8_t rdtsc[] = {0x0f, 0x31};
  jit::Assembler as;
  as.emitBytes(rdtsc);
  as.movRegReg(isa::Reg::rax, isa::Reg::rdi);
  as.ret();
  auto subject = as.finalizeExecutable();
  ASSERT_TRUE(subject.ok());
  using telemetry::counter;
  using telemetry::CounterId;
  const uint64_t failures0 =
      counter(CounterId::DispatchVariantFailures).value();

  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, subject->data(), 0, {ArgValue::fromInt(0)},
                      Config{}, asyncOnFirstMiss());
  ASSERT_TRUE(d.valid());
  const triple_t fn = d.as<triple_t>();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter(CounterId::DispatchVariantFailures).value() == failures0 &&
         std::chrono::steady_clock::now() < deadline)
    ASSERT_EQ(fn(5), 5);
  EXPECT_EQ(counter(CounterId::DispatchVariantFailures).value() - failures0,
            1u);

  // The dispatcher keeps routing to the original through the same entry.
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.stats().pendingAsync, 0u);
  EXPECT_EQ(reinterpret_cast<void*>(fn), d.entry());
  for (int64_t i = 0; i < 100; ++i) ASSERT_EQ(fn(i), i);
  EXPECT_EQ(manager.cache().stats().asyncInstalls, 0u);
}

}  // namespace
}  // namespace brew
