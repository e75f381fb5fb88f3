// Persistent-cache battery (docs/CACHE.md "Persistence"): warm-start
// round trips through a fresh SpecManager, the corruption battery
// (truncation, bit flips, stale format version, foreign build id, foreign
// key bytes under a colliding name, a kill-during-write torture loop —
// every case must fall back to a cold rewrite, never crash, and bump
// cache.persist_rejects), plus page sharing between two Stores that map
// one entry file, and both Stores hammered from 8 threads for the TSan
// sweep.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/code_cache.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "support/persist_cache.hpp"
#include "support/telemetry.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BREW_TEST_TSAN 1
#endif
#endif
#if !defined(BREW_TEST_TSAN) && defined(__SANITIZE_THREAD__)
#define BREW_TEST_TSAN 1
#endif

namespace brew {
namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

Config knownFirstParam() {
  Config config;
  config.setParamKnown(0);
  config.setReturnKind(ReturnKind::Int);
  return config;
}

std::vector<ArgValue> argsFor(int known) {
  return {ArgValue::fromInt(static_cast<uint64_t>(known)),
          ArgValue::fromInt(0)};
}

// Fresh cache directory per test; removed best-effort at scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/brew-persist-test-XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    if (!path.empty()) {
      const std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
  std::string path;
};

SpecManager::Options persistOptions(const std::string& dir) {
  SpecManager::Options options;
  options.cacheDir = dir;
  return options;
}

uint64_t counterValue(telemetry::CounterId id) {
  return telemetry::counter(id).value();
}

// Loaded code is mapped in the 4 GiB window of the function it stands in
// for (docs/INTERNALS.md "Executable memory").
bool inFunctionWindow(const void* fn, const void* code) {
  return reinterpret_cast<uintptr_t>(fn) >> 32 ==
         reinterpret_cast<uintptr_t>(code) >> 32;
}

// On-disk EntryHeader byte offsets the corruption tests patch. Kept in
// sync with persist_cache.cpp by the layout static_asserts there; a drift
// shows up as "stale version" entries failing differently, which the
// battery would catch as a wrong reject reason.
constexpr size_t kHeaderBytes = 104;
constexpr size_t kExeBuildIdOffset = 8;
constexpr size_t kHeaderChecksumOffset = 56;
constexpr size_t kVersionOffset = 64;
constexpr size_t kPayloadBytesOffset = 72;

// Shared_Clean + Shared_Dirty (kB) of the /proc/self/smaps mapping that
// holds `addr`: its pages that another mapping, in this process or
// another, also maps. A freshly written entry stays dirty in the page
// cache until writeback, so Shared_Clean alone can read 0.
uint64_t sharedKbAt(const void* addr) {
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0;
  const auto a = reinterpret_cast<uintptr_t>(addr);
  bool inside = false;
  uint64_t kb = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    uintptr_t lo = 0, hi = 0;
    char perms[8];
    unsigned long long v = 0;
    if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR " %7s", &lo, &hi,
                    perms) == 3)
      inside = a >= lo && a < hi;
    else if (inside && (std::sscanf(line, "Shared_Clean: %llu", &v) == 1 ||
                        std::sscanf(line, "Shared_Dirty: %llu", &v) == 1))
      kb += v;
  }
  std::fclose(f);
  return kb;
}

std::vector<uint8_t> readFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

void writeFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// Recomputes the header checksum (FNV-1a over the header with the
// checksum field zeroed) so a test can patch header fields and present an
// entry that is *internally consistent* but semantically wrong — the
// stale-version and foreign-build cases must be rejected by the version /
// key comparison, not bounce off the checksum.
void fixHeaderChecksum(std::vector<uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), kHeaderBytes);
  std::vector<uint8_t> hdr(bytes.begin(), bytes.begin() + kHeaderBytes);
  std::memset(hdr.data() + kHeaderChecksumOffset, 0, 8);
  uint64_t h = 1469598103934665603ULL;
  for (const uint8_t b : hdr) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  std::memcpy(bytes.data() + kHeaderChecksumOffset, &h, 8);
}

// Seeds `dir` with one specialization of addmul (known a = `known`) and
// returns the entry's path.
std::string seedEntry(const std::string& dir, int known) {
  SpecManager manager{persistOptions(dir)};
  const Config config = knownFirstParam();
  const auto args = argsFor(known);
  auto result = manager.rewrite(config, {}, reinterpret_cast<void*>(&addmul),
                                args);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(manager.cache().stats().persistWrites, 1u);
  const CacheKey key = makeCacheKey(config, {},
                                    reinterpret_cast<void*>(&addmul), args);
  EXPECT_NE(manager.persistStore(), nullptr);
  return manager.persistStore()->entryPathFor(
      reinterpret_cast<void*>(&addmul), key.configFp, key.argsHash);
}

// After the entry at `dir` was corrupted: a fresh manager must rewrite
// cold (correct results), count exactly one reject, and never crash.
void expectColdFallback(const std::string& dir, int known) {
  const uint64_t rejectsBefore = counterValue(
      telemetry::CounterId::PersistRejects);
  SpecManager manager{persistOptions(dir)};
  auto result = manager.rewrite(knownFirstParam(), {},
                                reinterpret_cast<void*>(&addmul),
                                argsFor(known));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(reinterpret_cast<addmul_t>(result->entry())(known, 9),
            known * 7 + 9);
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.persistHits, 0u);
  EXPECT_EQ(stats.persistRejects, 1u);
  EXPECT_EQ(counterValue(telemetry::CounterId::PersistRejects),
            rejectsBefore + 1);
  // The reject fell back to a cold rewrite, which re-published the entry.
  EXPECT_EQ(stats.persistWrites, 1u);
}

TEST(PersistStore, SelfBuildIdStable) {
  EXPECT_NE(persist::selfBuildId(), 0u);
  EXPECT_EQ(persist::selfBuildId(), persist::selfBuildId());
}

TEST(PersistStore, OpenRejectsUnwritableDirectory) {
  EXPECT_EQ(persist::Store::open("/proc/none/such/dir"), nullptr);
  EXPECT_EQ(persist::Store::open(""), nullptr);
}

size_t taskCount() {
  size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/task"); d != nullptr) {
    while (const dirent* ent = ::readdir(d))
      if (ent->d_name[0] != '.') ++n;
    ::closedir(d);
  }
  return n;
}

TEST(PersistStore, OpenStartsNoThreadOrSocket) {
  // Processes share entries by mapping the files: opening a store starts
  // no thread and binds no socket.
  TempDir dir;
  const size_t before = taskCount();
  auto store = persist::Store::open(dir.path);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(taskCount(), before);
  DIR* d = ::opendir(store->directory().c_str());
  ASSERT_NE(d, nullptr);
  while (const dirent* ent = ::readdir(d)) {
    struct stat st{};
    const std::string path = store->directory() + "/" + ent->d_name;
    ASSERT_EQ(::lstat(path.c_str(), &st), 0) << path;
    EXPECT_FALSE(S_ISSOCK(st.st_mode)) << path;
  }
  ::closedir(d);
}

TEST(ConfigAslr, StableFingerprintClassification) {
  EXPECT_TRUE(knownFirstParam().aslrStableFingerprint());
  Config region = knownFirstParam();
  static const int data[4] = {1, 2, 3, 4};
  region.addKnownRegion(data, sizeof data);
  EXPECT_FALSE(region.aslrStableFingerprint());
  Config perFn = knownFirstParam();
  perFn.setFunctionOptions(reinterpret_cast<void*>(&addmul), {});
  EXPECT_FALSE(perFn.aslrStableFingerprint());
  Config handler = knownFirstParam();
  handler.injection().onEntry = [](uint64_t) {};
  EXPECT_FALSE(handler.aslrStableFingerprint());
}

TEST(PersistRoundTrip, WarmStartHitsWithZeroTracePhases) {
  TempDir dir;
  const std::string entry = seedEntry(dir.path, 5);
  struct stat st{};
  ASSERT_EQ(::stat(entry.c_str(), &st), 0);
  EXPECT_GT(st.st_size, 104);

  // A "restarted process": a fresh manager over the same directory. The
  // rewrite must come back from disk — no trace, no emulate, no emit.
  const uint64_t attemptsBefore = counterValue(
      telemetry::CounterId::RewriteAttempts);
  SpecManager manager{persistOptions(dir.path)};
  auto result = manager.rewrite(knownFirstParam(), {},
                                reinterpret_cast<void*>(&addmul),
                                argsFor(5));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(inFunctionWindow(reinterpret_cast<void*>(&addmul),
                               result->entry()));
  EXPECT_EQ(reinterpret_cast<addmul_t>(result->entry())(5, 9), 44);
  EXPECT_EQ(reinterpret_cast<addmul_t>(result->entry())(5, -3), 32);
  EXPECT_EQ(counterValue(telemetry::CounterId::RewriteAttempts),
            attemptsBefore);  // compileSpecialization never entered
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.persistHits, 1u);
  EXPECT_EQ(stats.persistRejects, 0u);
  EXPECT_EQ(stats.persistWrites, 0u);
  // Cache accounting still sees the unit's blocks/bytes.
  EXPECT_GT(stats.blocksLive, 0u);
  EXPECT_GT(stats.codeBytes, 0u);

  size_t lines = 0;
  EXPECT_TRUE(manager.persistStore()->manifestIntact(&lines));
  EXPECT_EQ(lines, 1u);
}

TEST(PersistRoundTrip, DifferentSpecializationMisses) {
  TempDir dir;
  seedEntry(dir.path, 5);
  SpecManager manager{persistOptions(dir.path)};
  // Same function, different known value: different argsHash, clean miss.
  auto result = manager.rewrite(knownFirstParam(), {},
                                reinterpret_cast<void*>(&addmul),
                                argsFor(6));
  ASSERT_TRUE(result.ok());
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.persistHits, 0u);
  EXPECT_EQ(stats.persistMisses, 1u);
  EXPECT_EQ(stats.persistRejects, 0u);
}

// Offset of the first payload byte, which the payload size puts at the
// end of the file.
size_t payloadStart(const std::vector<uint8_t>& bytes) {
  uint32_t payloadBytes = 0;
  std::memcpy(&payloadBytes, bytes.data() + kPayloadBytesOffset, 4);
  return bytes.size() - payloadBytes;
}

TEST(PersistCorruption, TruncatedEntriesReject) {
  // Every truncation point: inside the header, header-only, inside the
  // key bytes, and one byte short of the full file, inside the range a
  // probe maps. All must reject on the size check, before any mmap (no
  // SIGBUS), unlink the corpse, and rewrite cold.
  for (int cut = 0; cut < 4; ++cut) {
    TempDir dir;
    const std::string entry = seedEntry(dir.path, 5);
    struct stat st{};
    ASSERT_EQ(::stat(entry.c_str(), &st), 0);
    const size_t full = static_cast<size_t>(st.st_size);
    ASSERT_GT(full, kHeaderBytes + 7);
    const size_t keep[] = {3, kHeaderBytes, kHeaderBytes + 7, full - 1};
    SCOPED_TRACE(keep[cut]);
    ASSERT_EQ(::truncate(entry.c_str(), static_cast<off_t>(keep[cut])), 0);
    expectColdFallback(dir.path, 5);
  }
}

TEST(PersistCorruption, PayloadBitFlipRejects) {
  // One flip inside the key bytes, one in the first executable byte: the
  // checksum covers the mapped code, not only the tables before it.
  for (const bool inCode : {false, true}) {
    SCOPED_TRACE(inCode ? "first payload byte" : "key bytes");
    TempDir dir;
    const std::string entry = seedEntry(dir.path, 5);
    std::vector<uint8_t> bytes = readFile(entry);
    ASSERT_GT(bytes.size(), kHeaderBytes + 5);
    const size_t at = inCode ? payloadStart(bytes) : kHeaderBytes + 5;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x40;
    writeFile(entry, bytes);
    expectColdFallback(dir.path, 5);
  }
}

TEST(PersistCorruption, HeaderBitFlipRejects) {
  TempDir dir;
  const std::string entry = seedEntry(dir.path, 5);
  std::vector<uint8_t> bytes = readFile(entry);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  bytes[kVersionOffset + 8] ^= 0x01;  // flags field; header checksum trips
  writeFile(entry, bytes);
  expectColdFallback(dir.path, 5);
}

TEST(PersistCorruption, StaleFormatVersionRejects) {
  TempDir dir;
  const std::string entry = seedEntry(dir.path, 5);
  std::vector<uint8_t> bytes = readFile(entry);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  const uint32_t stale = persist::kFormatVersion + 1;
  std::memcpy(bytes.data() + kVersionOffset, &stale, 4);
  fixHeaderChecksum(bytes);  // internally consistent, wrong version
  writeFile(entry, bytes);
  expectColdFallback(dir.path, 5);
}

TEST(PersistCorruption, ForeignBuildIdRejects) {
  TempDir dir;
  const std::string entry = seedEntry(dir.path, 5);
  std::vector<uint8_t> bytes = readFile(entry);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  uint64_t foreign = persist::selfBuildId() ^ 0xdeadbeefULL;
  std::memcpy(bytes.data() + kExeBuildIdOffset, &foreign, 8);
  fixHeaderChecksum(bytes);  // consistent entry from a "rebuilt binary"
  writeFile(entry, bytes);
  expectColdFallback(dir.path, 5);
}

TEST(PersistCorruption, ForeignKeyBytesUnderCollidingNameRejects) {
  // A valid entry filed under the request's (fn, configFp, argsHash) but
  // written for other key bytes: the on-disk face of a hash collision.
  // Two inputs: the code for a = 6 under the name of a = 5, and the code
  // for knownFirstParam() under the name of a config that differs from it
  // in the return kind alone. Adopting either would serve foreign code.
  const auto* fn = reinterpret_cast<const void*>(&addmul);
  Config otherReturn = knownFirstParam();
  otherReturn.setReturnKind(ReturnKind::Unknown);
  const struct {
    const char* name;
    Config config;         // the request
    Config foreignConfig;  // what the entry was built for
    int foreignKnown;
  } inputs[] = {
      {"other argument", knownFirstParam(), knownFirstParam(), 6},
      {"other config", otherReturn, knownFirstParam(), 5},
  };
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.name);
    TempDir dir;
    const Config& config = input.config;
    const CacheKey key = makeCacheKey(config, {}, fn, argsFor(5));
    auto reference = compileSpecialization(config, {}, fn, argsFor(5));
    auto foreign = compileSpecialization(input.foreignConfig, {}, fn,
                                         argsFor(input.foreignKnown));
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(foreign.ok());
    {
      auto store = persist::Store::open(dir.path);
      ASSERT_NE(store, nullptr);
      const CodeBlock* block = foreign->get();
      const CacheKey foreignKey = makeCacheKey(
          input.foreignConfig, {}, fn, argsFor(input.foreignKnown));
      persist::WriteRequest req;
      req.fn = fn;
      req.configFp = key.configFp;
      req.argsHash = key.argsHash;
      req.keyBytes = foreignKey.bytes;
      req.bytes = block->memory.data();
      req.size = block->memory.size();
      req.codeBytes = static_cast<uint32_t>(block->emitStats.codeBytes);
      req.blockUnits = static_cast<uint32_t>(block->blockUnits());
      ASSERT_TRUE(store->write(req));
    }

    const uint64_t rejectsBefore = counterValue(
        telemetry::CounterId::PersistRejects);
    {
      SpecManager manager{persistOptions(dir.path)};
      auto result = manager.rewrite(config, {}, fn, argsFor(5));
      ASSERT_TRUE(result.ok()) << result.error().message();
      const CacheStats stats = manager.cache().stats();
      EXPECT_EQ(stats.persistHits, 0u);
      EXPECT_EQ(stats.persistRejects, 1u);
      EXPECT_EQ(stats.persistWrites, 1u);  // the cold build replaced it
      EXPECT_EQ(counterValue(telemetry::CounterId::PersistRejects),
                rejectsBefore + 1);
      // Compiled cold: bit-exact against the genuine specialization.
      const ExecMemory& got = (*result)->memory;
      const ExecMemory& want = (*reference)->memory;
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
      EXPECT_EQ(reinterpret_cast<addmul_t>(result->entry())(5, 9), 44);
    }

    // The replacement carries the right key bytes: a restart now hits.
    SpecManager restarted{persistOptions(dir.path)};
    auto warm = restarted.rewrite(config, {}, fn, argsFor(5));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(restarted.cache().stats().persistHits, 1u);
    EXPECT_EQ(reinterpret_cast<addmul_t>(warm->entry())(5, 9), 44);
  }
}

TEST(PersistCorruption, KillDuringWriteTortureLoop) {
#ifdef BREW_TEST_TSAN
  GTEST_SKIP() << "fork-without-exec torture loop is not TSan-compatible";
#else
  TempDir dir;
  std::vector<uint8_t> payload(1536);
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<uint8_t>(i * 131 + 7);

  for (int round = 0; round < 6; ++round) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: hammer writes until the parent kills us mid-stream.
      auto store = persist::Store::open(dir.path);
      if (store == nullptr) ::_exit(1);
      persist::WriteRequest req;
      req.fn = reinterpret_cast<void*>(&addmul);
      req.configFp = 0x1234;
      req.bytes = payload.data();
      req.size = payload.size();
      req.codeBytes = static_cast<uint32_t>(payload.size());
      req.blockUnits = 1;
      for (uint64_t k = 0;; ++k) {
        req.argsHash = k % 16;
        store->write(req);
      }
    }
    ::usleep(static_cast<useconds_t>(500 + round * 700));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }

  // Survivor's view: open() sweeps the dead writers' temp files, the
  // manifest has no torn lines, and every key either loads a fully valid
  // entry or misses — never crashes, never yields partial bytes.
  auto store = persist::Store::open(dir.path);
  ASSERT_NE(store, nullptr);
  size_t lines = 0;
  EXPECT_TRUE(store->manifestIntact(&lines));
  const uint64_t rejectsBefore = counterValue(
      telemetry::CounterId::PersistRejects);
  size_t hits = 0;
  for (uint64_t k = 0; k < 16; ++k) {
    persist::ProbeResult probe =
        store->probe(reinterpret_cast<void*>(&addmul), 0x1234, k);
    EXPECT_FALSE(probe.rejected);
    if (!probe.entry.has_value()) continue;
    ++hits;
    ASSERT_TRUE(probe.entry->memory.valid());
    EXPECT_EQ(std::memcmp(probe.entry->memory.data(), payload.data(),
                          payload.size()),
              0);
  }
  EXPECT_GT(hits, 0u);  // the loop published entries before dying
  EXPECT_GE(lines, hits);
  EXPECT_EQ(counterValue(telemetry::CounterId::PersistRejects),
            rejectsBefore);

  // No orphaned temp files survive the sweep.
  const std::string cmd =
      "ls -A '" + store->directory() + "' | grep -c '^\\.tmp-' || true";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  char buf[32] = {0};
  ASSERT_NE(std::fgets(buf, sizeof buf, p), nullptr);
  ::pclose(p);
  EXPECT_EQ(std::strtol(buf, nullptr, 10), 0);
#endif
}

TEST(PersistConcurrency, SharedPagesServedBetweenStores) {
  TempDir dir;
  auto writer = persist::Store::open(dir.path);
  ASSERT_NE(writer, nullptr);

  std::vector<uint8_t> payload(640);
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<uint8_t>(i ^ 0xa5);
  persist::WriteRequest req;
  req.fn = reinterpret_cast<void*>(&addmul);
  req.configFp = 7;
  req.argsHash = 9;
  req.bytes = payload.data();
  req.size = payload.size();
  req.codeBytes = static_cast<uint32_t>(payload.size());
  req.blockUnits = 1;
  ASSERT_TRUE(writer->write(req));

  // Two stores over the directory, as two processes would open it. Each
  // reloc-free probe maps the entry file itself, so the two mappings share
  // the file's page-cache pages.
  auto reader = persist::Store::open(dir.path);
  ASSERT_NE(reader, nullptr);
  persist::ProbeResult first =
      writer->probe(reinterpret_cast<void*>(&addmul), 7, 9);
  persist::ProbeResult second =
      reader->probe(reinterpret_cast<void*>(&addmul), 7, 9);
  for (const persist::ProbeResult* probe : {&first, &second}) {
    ASSERT_TRUE(probe->entry.has_value());
    EXPECT_TRUE(probe->entry->shared);
    EXPECT_TRUE(inFunctionWindow(reinterpret_cast<void*>(&addmul),
                                 probe->entry->memory.data()));
    EXPECT_EQ(std::memcmp(probe->entry->memory.data(), payload.data(),
                          payload.size()),
              0);
  }
  EXPECT_NE(first.entry->memory.data(), second.entry->memory.data());
  EXPECT_GT(sharedKbAt(second.entry->memory.data()), 0u);
  // A shared mapping of a read-only file: flipping it back to writable
  // must fail, not succeed.
  EXPECT_FALSE(second.entry->memory.makeWritable().ok());
}

TEST(PersistConcurrency, EightThreadHammerOverOneDirectory) {
  TempDir dir;
  auto first = persist::Store::open(dir.path);
  ASSERT_NE(first, nullptr);
  auto second = persist::Store::open(dir.path);
  ASSERT_NE(second, nullptr);

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> payload(256 + static_cast<size_t>(t) * 32);
      for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i + t);
      persist::Store* mine = (t % 2 == 0) ? first.get() : second.get();
      for (int i = 0; i < kIters; ++i) {
        persist::WriteRequest req;
        req.fn = reinterpret_cast<void*>(&addmul);
        req.configFp = 0x42;
        req.argsHash = static_cast<uint64_t>(t);
        req.bytes = payload.data();
        req.size = payload.size();
        req.codeBytes = static_cast<uint32_t>(payload.size());
        req.blockUnits = 1;
        if (!mine->write(req)) failures.fetch_add(1);
        persist::ProbeResult probe = mine->probe(
            reinterpret_cast<void*>(&addmul), 0x42,
            static_cast<uint64_t>(t));
        if (!probe.entry.has_value() || probe.rejected ||
            std::memcmp(probe.entry->memory.data(), payload.data(),
                        payload.size()) != 0)
          failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  size_t lines = 0;
  EXPECT_TRUE(first->manifestIntact(&lines));
  EXPECT_EQ(lines, static_cast<size_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace brew
