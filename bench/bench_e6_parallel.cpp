// E6: thread-scalable specialization — our extension (the paper is
// single-threaded). Every thread specializes its own 5-point stencil
// variant, then hammers the specialization cache with the same request;
// after the one trace per variant, every rewrite is a cached hit. The
// sharded cache serves those hits from a lock-free seqlock table, so
// throughput should scale with threads; the cacheShards = 1 control
// (one mutex, no hit table) is the pre-sharding behavior and plateaus.
//
// Thread counts come from BREW_BENCH_THREADS (comma list, default
// "1,2,4,8"); scripts/run_benches.sh --threads forwards its matrix here.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/spec_manager.hpp"
#include "stencil_bench_common.hpp"

using namespace brew;
using namespace brew::bench;
using stencil::Matrix;

namespace {

// Fixed TOTAL hit count split across threads, so the measured seconds for
// each row are directly comparable (perfect scaling halves the time when
// the thread count doubles).
constexpr int kTotalHits = 160000;
constexpr size_t kShardedShards = 16;

std::vector<int> threadCounts() {
  std::vector<int> out;
  const char* env = std::getenv("BREW_BENCH_THREADS");
  const char* p = env != nullptr ? env : "1,2,4,8";
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v >= 1 && v <= 64) out.push_back(static_cast<int>(v));
    p = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

// One 5-point stencil copy per thread. Identical bytes, but KnownPtr
// arguments fold the pointer value into the specialization key, so each
// copy is a distinct cache entry — per-thread specialization, as a PGAS
// runtime would do per rank.
std::vector<brew_stencil> makeVariants(int count) {
  std::vector<brew_stencil> out(static_cast<size_t>(count),
                                stencil::fivePoint());
  return out;
}

struct RunResult {
  double seconds = 0;
  CacheStats stats;
  uint64_t p50Ns = 0;   // per-hit rewrite latency quantiles
  uint64_t p99Ns = 0;
  uint64_t p999Ns = 0;
};

// Traces one variant per thread (warm), zeroes the counters, then times
// `threads` threads doing kTotalHits/threads cached rewrites each. Every
// hit is also clocked individually into a per-row latency histogram
// (HDR buckets, exported in the --json "latency" section) — the tail is
// where shard-mutex contention shows up, not in the mean.
RunResult runHits(size_t shards, int threads,
                  const std::vector<brew_stencil>& variants) {
  char latName[64];
  std::snprintf(latName, sizeof latName, "cached_hit_%s_%dt_ns",
                shards > 1 ? "sharded" : "single", threads);
  telemetry::Histogram& latency = latencyHistogram(latName);
  SpecManager manager{
      SpecManager::Options{.workers = 1, .cacheShards = shards}};
  const Config config = stencilConfig(sizeof(brew_stencil));
  const auto* fn = reinterpret_cast<const void*>(&brew_stencil_apply);

  for (int t = 0; t < threads; ++t) {
    Rewriter rewriter{config, manager};
    auto traced = rewriter.rewrite(fn, nullptr, kSide, &variants[t]);
    if (!traced.ok()) {
      std::fprintf(stderr, "FATAL: stencil rewrite failed: %s\n",
                   traced.error().message().c_str());
      std::exit(2);
    }
  }
  manager.cache().resetStats();  // the timed section is hits only

  const int hitsPerThread = kTotalHits / threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Rewriter rewriter{config, manager};
      const brew_stencil* mine = &variants[static_cast<size_t>(t)];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      for (int i = 0; i < hitsPerThread; ++i) {
        const uint64_t t0 = telemetry::nowNs();
        auto hit = rewriter.rewrite(fn, nullptr, kSide, mine);
        latency.record(telemetry::nowNs() - t0);
        if (!hit.ok()) {
          std::fprintf(stderr, "FATAL: cached rewrite failed: %s\n",
                       hit.error().message().c_str());
          std::exit(2);
        }
        benchmark::DoNotOptimize(hit);
      }
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  Timer timer;
  go.store(true);
  for (std::thread& thread : pool) thread.join();

  RunResult out;
  out.seconds = timer.seconds();
  out.stats = manager.cache().stats();
  out.p50Ns = latency.quantile(0.50);
  out.p99Ns = latency.quantile(0.99);
  out.p999Ns = latency.quantile(0.999);
  return out;
}

// Shared state for the google-benchmark registrations (built in main
// before RunSpecifiedBenchmarks; benchmark threads index by thread_index).
SpecManager* g_sharded = nullptr;
SpecManager* g_single = nullptr;
std::vector<brew_stencil> g_variants;

void BM_ParallelCachedHit(benchmark::State& state, SpecManager* manager) {
  const Config config = stencilConfig(sizeof(brew_stencil));
  Rewriter rewriter{config, *manager};
  const auto* fn = reinterpret_cast<const void*>(&brew_stencil_apply);
  const brew_stencil* mine =
      &g_variants[static_cast<size_t>(state.thread_index())];
  for (auto _ : state) {
    auto hit = rewriter.rewrite(fn, nullptr, kSide, mine);
    benchmark::DoNotOptimize(hit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E6: per-thread specialization, cached-hit scaling\n");

  const std::vector<int> counts = threadCounts();
  int maxThreads = 1;
  for (const int t : counts) maxThreads = std::max(maxThreads, t);
  const std::vector<brew_stencil> variants = makeVariants(maxThreads);

  // Correctness first: a per-thread variant is a real specialization — it
  // must sweep the matrix exactly like the generic kernel.
  {
    SpecManager manager{SpecManager::Options{.workers = 1}};
    Rewriter rewriter{stencilConfig(sizeof(brew_stencil)), manager};
    auto rewritten = rewriter.rewrite(
        reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kSide,
        &variants[0]);
    if (!rewritten.ok()) {
      std::fprintf(stderr, "FATAL: stencil rewrite failed: %s\n",
                   rewritten.error().message().c_str());
      return 2;
    }
    Matrix a(kSide, kSide), b(kSide, kSide), a2(kSide, kSide),
        b2(kSide, kSide);
    a.fillDeterministic();
    a2.fillDeterministic();
    const Matrix& generic =
        stencil::runIterations(a, b, 3, &brew_stencil_apply, variants[0]);
    const Matrix& specialized = stencil::runIterations(
        a2, b2, 3, rewritten->as<brew_stencil_fn>(), variants[0]);
    if (Matrix::maxAbsDiff(generic, specialized) != 0.0) {
      std::fprintf(stderr, "FATAL: specialized sweep diverged\n");
      return 2;
    }
  }

  ShapeChecks checks;
  PaperTable table("E6", "cached-hit throughput vs threads (extension)");
  std::vector<RunResult> sharded, single;
  for (const int t : counts) {
    const RunResult s = runHits(kShardedShards, t, variants);
    const RunResult c = runHits(1, t, variants);
    sharded.push_back(s);
    single.push_back(c);

    char row[64];
    std::snprintf(row, sizeof row, "sharded cache, %d thread%s", t,
                  t == 1 ? "" : "s");
    table.addRow(row, -1, s.seconds);
    std::snprintf(row, sizeof row, "single shard (control), %d thread%s", t,
                  t == 1 ? "" : "s");
    table.addRow(row, -1, c.seconds);

    const uint64_t want = static_cast<uint64_t>(kTotalHits / t) *
                          static_cast<uint64_t>(t);
    checks.expect(s.stats.hits == want && s.stats.misses == 0,
                  "sharded: every timed rewrite is a cached hit (" +
                      std::to_string(t) + " threads)");
    checks.expect(c.stats.hits == want && c.stats.misses == 0,
                  "control: every timed rewrite is a cached hit (" +
                      std::to_string(t) + " threads)");
    checks.expect(c.stats.fastpathHits == 0 && c.stats.shards == 1,
                  "control has one shard and no lock-free hits (" +
                      std::to_string(t) + " threads)");
    checks.expect(s.stats.shards == kShardedShards,
                  "sharded cache reports its shard count (" +
                      std::to_string(t) + " threads)");
  }
  table.print();

  for (size_t i = 0; i < counts.size(); ++i) {
    const double hps = kTotalHits / sharded[i].seconds;
    const double cps = kTotalHits / single[i].seconds;
    std::printf("  %d thread(s): sharded %9.0f hits/s (%5.1f%% fastpath)   "
                "control %9.0f hits/s (contention %llu)\n",
                counts[i], hps,
                100.0 * static_cast<double>(sharded[i].stats.fastpathHits) /
                    static_cast<double>(sharded[i].stats.hits),
                cps,
                static_cast<unsigned long long>(
                    single[i].stats.shardContention));
    std::printf("    per-hit latency: sharded p50/p99/p999 "
                "%llu/%llu/%llu ns   control %llu/%llu/%llu ns\n",
                static_cast<unsigned long long>(sharded[i].p50Ns),
                static_cast<unsigned long long>(sharded[i].p99Ns),
                static_cast<unsigned long long>(sharded[i].p999Ns),
                static_cast<unsigned long long>(single[i].p50Ns),
                static_cast<unsigned long long>(single[i].p99Ns),
                static_cast<unsigned long long>(single[i].p999Ns));
  }

  // The 1-thread run has no slot contention: every hit after the trace is
  // served by the seqlock table without touching a shard mutex.
  for (size_t i = 0; i < counts.size(); ++i)
    if (counts[i] == 1)
      checks.expect(sharded[i].stats.fastpathHits == sharded[i].stats.hits,
                    "1-thread sharded run serves 100% of hits lock-free");

  // Scaling shape needs real cores: this container may expose only one.
  // (check_telemetry.sh uses the same SKIP philosophy.)
  const unsigned cores = std::thread::hardware_concurrency();
  int lo = -1, hi = -1;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 1) lo = static_cast<int>(i);
    if (counts[i] == 8) hi = static_cast<int>(i);
  }
  if (cores >= 8 && lo >= 0 && hi >= 0) {
    const double shardedScale = sharded[static_cast<size_t>(lo)].seconds /
                                sharded[static_cast<size_t>(hi)].seconds;
    const double controlScale = single[static_cast<size_t>(lo)].seconds /
                                single[static_cast<size_t>(hi)].seconds;
    std::printf("  1->8 thread scaling: sharded %.2fx, control %.2fx\n",
                shardedScale, controlScale);
    checks.expect(shardedScale >= 4.0,
                  "sharded cached-hit throughput scales >=4x from 1 to 8 "
                  "threads");
    checks.expect(controlScale <= 1.5,
                  "single-shard control plateaus (<=1.5x) under the same "
                  "load");
  } else {
    std::printf("  [SKIP] 1->8 scaling shape needs >=8 cores and thread "
                "counts {1,8} (have %u cores)\n", cores);
  }

  // Microbenchmarks: per-rewrite latency at each thread count, sharded vs
  // single-shard control, on long-lived managers.
  SpecManager shardedManager{
      SpecManager::Options{.workers = 1, .cacheShards = kShardedShards}};
  SpecManager singleManager{
      SpecManager::Options{.workers = 1, .cacheShards = 1}};
  g_sharded = &shardedManager;
  g_single = &singleManager;
  g_variants = variants;
  for (const int t : counts) {
    benchmark::RegisterBenchmark("BM_ParallelCachedHit", BM_ParallelCachedHit,
                                 g_sharded)
        ->Threads(t)
        ->UseRealTime();
    benchmark::RegisterBenchmark("BM_ParallelCachedHitSingleShard",
                                 BM_ParallelCachedHit, g_single)
        ->Threads(t)
        ->UseRealTime();
  }
  return finish(checks, argc, argv);
}
