// Cross-process persistent-cache integration (docs/CACHE.md
// "Persistence"): forked sibling processes share one cache directory.
// Phase 1 races 8 cold workers writing into an empty directory; phase 2
// restarts 8 warm workers that must load everything from disk with ZERO
// trace phases (persist hits == kernels, no compileSpecialization, no
// traced instructions) and byte-identical code. A separate test pins
// page sharing: a child loading an entry the parent holds mapped must map
// the same file, so its code pages show as shared in /proc/self/smaps.
//
// Forked children never run gtest machinery: they report through per-child
// result files written with plain write() and leave via _exit(), so a
// child failure surfaces as a parent assertion, not a hung or double
// reporting test. Fork-without-exec is not TSan-compatible (the child
// inherits a locked runtime), so these tests skip under TSan; the
// in-process thread hammer in support_persist_cache_test.cpp carries the
// TSan coverage for the same code paths.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

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

// Distinct kernels so each worker materializes several independent cache
// entries; noinline + asm marker keep them apart as trace subjects.
__attribute__((noinline)) int kernAdd(int a, int b) {
  asm volatile("");
  return a * 7 + b;
}
__attribute__((noinline)) int kernXor(int a, int b) {
  asm volatile("");
  return (a ^ 0x15) * 3 + b;
}
__attribute__((noinline)) int kernShift(int a, int b) {
  asm volatile("");
  return (a << 2) - b + 11;
}
typedef int (*kern_t)(int, int);

struct Kernel {
  kern_t fn;
  int known;
  int probe;  // second argument used when executing
};

const Kernel kKernels[] = {
    {&kernAdd, 5, 9},
    {&kernXor, 12, -4},
    {&kernShift, 3, 20},
};
constexpr size_t kKernelCount = sizeof(kKernels) / sizeof(kKernels[0]);

Config knownFirstParam() {
  Config config;
  config.setParamKnown(0);
  config.setReturnKind(ReturnKind::Int);
  return config;
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/brew-persist-proc-XXXXXX";
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

uint64_t fnv(const void* data, size_t n, uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

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

// What one worker observed, written to its result file before _exit().
struct WorkerReport {
  uint64_t magic = 0x574b5250;  // "WRKP": file fully written
  uint64_t persistHits = 0;
  uint64_t persistWrites = 0;
  uint64_t persistRejects = 0;
  uint64_t rewriteAttempts = 0;   // telemetry delta: trace phases entered
  uint64_t traceInstructions = 0; // telemetry delta: instructions emulated
  uint64_t codeDigest = 0;        // fnv over every unit's finalized bytes
  uint64_t execChecksum = 0;      // results of running the rewritten code
  uint64_t sharedMaps = 0;
  uint64_t firstKernelSharedKb = 0;  // sharedKbAt(kKernels[0]'s code)
};

// Child body: open a SpecManager over `dir`, rewrite + execute every
// kernel, report what happened. Never returns.
[[noreturn]] void runWorker(const std::string& dir,
                            const std::string& reportPath) {
  WorkerReport report;
  const uint64_t attempts0 =
      telemetry::counter(telemetry::CounterId::RewriteAttempts).value();
  const uint64_t traced0 =
      telemetry::counter(telemetry::CounterId::TraceInstructions).value();
  {
    SpecManager::Options options;
    options.cacheDir = dir;
    SpecManager manager{options};
    const Config config = knownFirstParam();
    for (const Kernel& k : kKernels) {
      std::vector<ArgValue> args = {
          ArgValue::fromInt(static_cast<uint64_t>(k.known)),
          ArgValue::fromInt(0)};
      auto result = manager.rewrite(config, {},
                                    reinterpret_cast<void*>(k.fn), args);
      if (!result.ok()) ::_exit(2);
      report.codeDigest = fnv(result->entry(), result->codeSize(),
                              report.codeDigest ? report.codeDigest
                                                : 1469598103934665603ULL);
      const int got = reinterpret_cast<kern_t>(result->entry())(k.known,
                                                                k.probe);
      if (got != k.fn(k.known, k.probe)) ::_exit(3);
      if (&k == &kKernels[0])
        report.firstKernelSharedKb = sharedKbAt(result->entry());
      report.execChecksum =
          report.execChecksum * 31 + static_cast<uint64_t>(got);
    }
    const CacheStats stats = manager.cache().stats();
    report.persistHits = stats.persistHits;
    report.persistWrites = stats.persistWrites;
    report.persistRejects = stats.persistRejects;
  }
  report.rewriteAttempts =
      telemetry::counter(telemetry::CounterId::RewriteAttempts).value() -
      attempts0;
  report.traceInstructions =
      telemetry::counter(telemetry::CounterId::TraceInstructions).value() -
      traced0;
  report.sharedMaps =
      telemetry::counter(telemetry::CounterId::PersistSharedMaps).value();

  const int fd = ::open(reportPath.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) ::_exit(4);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&report);
  size_t left = sizeof report;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) ::_exit(5);
    p += n;
    left -= static_cast<size_t>(n);
  }
  ::close(fd);
  ::_exit(0);  // skip atexit/dtors: the report file is the contract
}

bool readReport(const std::string& path, WorkerReport* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  const size_t n = std::fread(out, 1, sizeof *out, f);
  std::fclose(f);
  return n == sizeof *out && out->magic == 0x574b5250;
}

// Forks `count` workers over `dir` and collects their reports.
std::vector<WorkerReport> runWorkers(const std::string& dir, int count,
                                     const std::string& tag) {
  std::vector<pid_t> pids;
  std::vector<std::string> paths;
  for (int i = 0; i < count; ++i) {
    paths.push_back(dir + "/report-" + tag + "-" + std::to_string(i));
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) runWorker(dir, paths.back());
    pids.push_back(pid);
  }
  std::vector<WorkerReport> reports;
  for (int i = 0; i < count; ++i) {
    int status = 0;
    EXPECT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << tag << " worker " << i << " status " << status;
    WorkerReport report;
    EXPECT_TRUE(readReport(paths[i], &report)) << paths[i];
    reports.push_back(report);
  }
  return reports;
}

TEST(PersistProcess, ColdRaceThenWarmRestartZeroTracePhases) {
#ifdef BREW_TEST_TSAN
  GTEST_SKIP() << "fork-without-exec workers are not TSan-compatible";
#else
  TempDir dir;
  constexpr int kWorkers = 8;

  // Phase 1: 8 cold workers race writes into one empty directory. Every
  // worker must finish correctly; the manifest must survive the race.
  const auto cold = runWorkers(dir.path, kWorkers, "cold");
  ASSERT_EQ(cold.size(), static_cast<size_t>(kWorkers));
  uint64_t coldAttempts = 0;
  uint64_t coldWrites = 0;
  for (const WorkerReport& r : cold) {
    EXPECT_EQ(r.persistRejects, 0u);
    EXPECT_EQ(r.codeDigest, cold[0].codeDigest);  // same layout → same code
    EXPECT_EQ(r.execChecksum, cold[0].execChecksum);
    coldAttempts += r.rewriteAttempts;
    coldWrites += r.persistWrites;
  }
  // Someone traced and published every kernel; a worker that lost the race
  // legitimately warm-starts off a faster sibling's entries, so the trace
  // floor is aggregate, not per-worker.
  EXPECT_GT(coldAttempts, 0u);
  EXPECT_GE(coldWrites, kKernelCount);

  // Phase 2: 8 warm workers over the now-populated directory. Zero trace
  // phases: every rewrite is served from disk.
  const auto warm = runWorkers(dir.path, kWorkers, "warm");
  for (const WorkerReport& r : warm) {
    EXPECT_EQ(r.persistHits, kKernelCount);
    EXPECT_EQ(r.persistWrites, 0u);
    EXPECT_EQ(r.persistRejects, 0u);
    EXPECT_EQ(r.rewriteAttempts, 0u);      // no compileSpecialization
    EXPECT_EQ(r.traceInstructions, 0u);    // no emulation either
    EXPECT_EQ(r.codeDigest, cold[0].codeDigest);  // byte-identical code
    EXPECT_EQ(r.execChecksum, cold[0].execChecksum);
  }

  // The racing writers never tore the manifest.
  auto store = persist::Store::open(dir.path);
  ASSERT_NE(store, nullptr);
  size_t lines = 0;
  EXPECT_TRUE(store->manifestIntact(&lines));
  EXPECT_GE(lines, kKernelCount);  // every entry was published at least once
#endif
}

TEST(PersistProcess, ChildMapsSharedPagesFromParentServer) {
#ifdef BREW_TEST_TSAN
  GTEST_SKIP() << "fork-without-exec workers are not TSan-compatible";
#else
  TempDir dir;
  // Parent seeds the directory.
  SpecManager::Options options;
  options.cacheDir = dir.path;
  SpecManager parent{options};
  const Config config = knownFirstParam();
  for (const Kernel& k : kKernels) {
    std::vector<ArgValue> args = {
        ArgValue::fromInt(static_cast<uint64_t>(k.known)),
        ArgValue::fromInt(0)};
    ASSERT_TRUE(parent.rewrite(config, {},
                               reinterpret_cast<void*>(k.fn), args)
                    .ok());
  }
  ASSERT_NE(parent.persistStore(), nullptr);
  // The parent maps the first kernel's entry and holds it across the fork.
  const Kernel& first = kKernels[0];
  const std::vector<ArgValue> firstArgs = {
      ArgValue::fromInt(static_cast<uint64_t>(first.known)),
      ArgValue::fromInt(0)};
  const CacheKey key = makeCacheKey(
      config, {}, reinterpret_cast<void*>(first.fn), firstArgs);
  persist::ProbeResult held = parent.persistStore()->probe(
      reinterpret_cast<void*>(first.fn), key.configFp, key.argsHash);
  ASSERT_TRUE(held.entry.has_value());
  ASSERT_TRUE(held.entry->shared);

  const std::string reportPath = dir.path + "/report-shared";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: every kernel has no relocations (pure arithmetic), so each
    // warm load maps its entry file, and the first kernel's pages are the
    // ones the parent holds mapped.
    runWorker(dir.path, reportPath);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "shared-map child status " << status;
  WorkerReport report;
  ASSERT_TRUE(readReport(reportPath, &report));
  EXPECT_EQ(report.persistHits, kKernelCount);
  EXPECT_EQ(report.rewriteAttempts, 0u);
  // At least one unit was mapped from its file. (All of them should, but
  // a reloc-bearing build keeps correctness with a private copy —
  // sharedMaps > 0 is the contract.)
  EXPECT_GT(report.sharedMaps, 0u);
  EXPECT_GT(report.firstKernelSharedKb, 0u);
#endif
}

}  // namespace
}  // namespace brew
