// E7: multi-version dispatch under a shifting key distribution — our
// extension (the paper rewrites once per known value; core/dispatch.hpp
// keeps several rewrites LIVE behind one inline-cache stub).
//
// Measures (a) the monomorphic dispatch hit against the cached SpecManager
// hit it replaces (the stub's compare+jump versus a cache probe per call),
// (b) steady-state stub hit rate and p99 dispatch latency while the hot
// set among 16 keys shifts every phase, and (c) that the variant table
// respects its budget and the demotion counter stabilizes once the
// distribution does (hysteresis: no thrash).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/dispatch.hpp"
#include "jit/assembler.hpp"

using namespace brew;
using namespace brew::bench;

namespace {

using isa::Mnemonic;
using isa::Reg;

// f(mode, x) = mode * 1000 + x: one integer "configuration" parameter
// (mode) worth specializing on, one live parameter.
ExecMemory buildKernel() {
  jit::Assembler as;
  as.emit(isa::makeInstr(Mnemonic::Imul, 8, isa::Operand::makeReg(Reg::rax),
                         isa::Operand::makeReg(Reg::rdi),
                         isa::Operand::makeImm(1000)));
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto mem = as.finalizeExecutable();
  if (!mem.ok()) {
    std::fprintf(stderr, "FATAL: kernel emission failed: %s\n",
                 mem.error().message().c_str());
    std::exit(2);
  }
  return std::move(*mem);
}

using kernel_t = int64_t (*)(int64_t, int64_t);

std::vector<ArgValue> protoArgs() {
  return {ArgValue::fromInt(0), ArgValue::fromInt(0)};
}

DispatchOptions churnOptions() {
  DispatchOptions opt;
  opt.maxVariants = 4;
  opt.sampleCalls = 32;
  opt.promoteThreshold = 8;
  opt.decayInterval = 256;
  return opt;
}

constexpr int kKeys = 16;          // the shifting configuration universe
constexpr int kHotSetSize = 4;     // hot keys per phase (== maxVariants)
constexpr int kPhases = 6;         // distribution shifts
constexpr int kCallsPerPhase = 60000;

struct ChurnResult {
  uint64_t calls = 0;
  uint64_t resolverEvents = 0;  // tableHits + misses (stub-miss-path calls)
  uint64_t demotionsDuringShifts = 0;
  uint64_t demotionsSteady = 0;
  size_t maxVariantsSeen = 0;
  std::vector<uint64_t> adaptCalls;  // per shift: calls until hot set is live
  double p50Ns = 0;
  double p99Ns = 0;
  double p999Ns = 0;
};

// True when every key of the hot window starting at `window` has a variant.
bool hotSetLive(const VariantDispatcher& d, int window) {
  int live = 0;
  for (const VariantInfo& v : d.variants())
    if (v.key >= static_cast<uint64_t>(window) &&
        v.key < static_cast<uint64_t>(window + kHotSetSize))
      ++live;
  return live == kHotSetSize;
}

// Drives `kPhases` phases; each phase hammers a rotated hot window of
// kHotSetSize keys (94% of calls) plus a uniform cold tail. The final
// phase repeats the previous hot set — the steady state the p99 and
// demotion-stability checks read.
ChurnResult runChurn(VariantDispatcher& d) {
  auto fn = d.as<kernel_t>();
  ChurnResult out;
  // Steady-phase per-call latencies land in the shared bench latency
  // histogram — quantiles come from its HDR buckets (and the same
  // distribution lands in the --json "latency" section) instead of
  // sorting a 60k-element vector.
  telemetry::Histogram& steadyLatency =
      latencyHistogram("dispatch_steady_call_ns");

  uint64_t demotionsBeforeSteady = 0;
  uint32_t rng = 0x9e3779b9;
  for (int phase = 0; phase < kPhases; ++phase) {
    // Final phase repeats the hot window: steady state, no new challengers.
    const int window = (phase == kPhases - 1 ? phase - 1 : phase) *
                       kHotSetSize % kKeys;
    if (phase == kPhases - 1) demotionsBeforeSteady = d.stats().demotions;
    // Phases 1 .. kPhases-2 start with a shift of the hot window.
    bool adapted = phase == 0 || phase == kPhases - 1;
    for (int i = 0; i < kCallsPerPhase; ++i) {
      rng = rng * 1664525u + 1013904223u;
      // 94% hot window, 6% uniform cold tail.
      const int64_t key = (rng >> 8) % 100 < 94
                              ? window + static_cast<int>((rng >> 24) %
                                                          kHotSetSize)
                              : static_cast<int>(rng % kKeys);
      if (phase == kPhases - 1) {
        const auto t0 = std::chrono::steady_clock::now();
        const int64_t got = fn(key, i);
        const auto t1 = std::chrono::steady_clock::now();
        steadyLatency.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        if (got != key * 1000 + i) {
          std::fprintf(stderr, "FATAL: wrong dispatch result\n");
          std::exit(2);
        }
      } else if (fn(key, i) != key * 1000 + i) {
        std::fprintf(stderr, "FATAL: wrong dispatch result\n");
        std::exit(2);
      }
      ++out.calls;
      out.maxVariantsSeen = std::max(out.maxVariantsSeen, d.variantCount());
      if (!adapted && (adapted = hotSetLive(d, window)))
        out.adaptCalls.push_back(static_cast<uint64_t>(i) + 1);
    }
  }

  const DispatchStats s = d.stats();
  out.resolverEvents = s.tableHits + s.misses;
  out.demotionsSteady = s.demotions - demotionsBeforeSteady;
  out.demotionsDuringShifts = demotionsBeforeSteady;
  out.p50Ns = static_cast<double>(steadyLatency.quantile(0.50));
  out.p99Ns = static_cast<double>(steadyLatency.quantile(0.99));
  out.p999Ns = static_cast<double>(steadyLatency.quantile(0.999));
  return out;
}

// Microbenchmark state (set up in main before RunSpecifiedBenchmarks).
VariantDispatcher* g_mono = nullptr;
VariantDispatcher* g_poly = nullptr;
SpecManager* g_manager = nullptr;
Config g_config;
const void* g_kernel = nullptr;
kernel_t g_original = nullptr;

void BM_OriginalCall(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(g_original(3, i++));
}

void BM_DispatchMonomorphic(benchmark::State& state) {
  auto fn = g_mono->as<kernel_t>();
  int64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(fn(3, i++));
}

void BM_DispatchPolymorphic4(benchmark::State& state) {
  auto fn = g_poly->as<kernel_t>();
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(i & 3, i));
    ++i;
  }
}

// The alternative multi-version dispatch would be a cache probe per call:
// rewrite() through the (warm) SpecManager and call the result.
void BM_CachedManagerHit(benchmark::State& state) {
  std::vector<ArgValue> args = protoArgs();
  args[0] = ArgValue::fromInt(3);
  int64_t i = 0;
  for (auto _ : state) {
    auto hit = g_manager->rewrite(g_config, {}, g_kernel, args);
    benchmark::DoNotOptimize(
        reinterpret_cast<kernel_t>(hit->entry())(3, i++));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E7: multi-version dispatch under variant churn (extension)\n");

  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel();
  g_config.setParamKnown(0);  // the cached-hit baseline bakes the same key
  g_kernel = kernel.data();
  g_original = reinterpret_cast<kernel_t>(kernel.data());
  g_manager = &manager;

  ShapeChecks checks;

  // Correctness first: hot, cold and churning keys all compute f exactly.
  {
    VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                        churnOptions());
    if (!d.valid()) {
      std::fprintf(stderr, "FATAL: dispatch stub emission failed\n");
      return 2;
    }
    auto fn = d.as<kernel_t>();
    for (int i = 0; i < 2000; ++i)
      for (int64_t key : {int64_t{2}, int64_t{5}, int64_t{11}})
        if (fn(key, i) != key * 1000 + i) {
          std::fprintf(stderr, "FATAL: dispatch diverged from original\n");
          return 2;
        }
    checks.expect(d.variantCount() >= 1 && d.variantCount() <= 4,
                  "warm dispatcher holds 1..4 variants");
  }

  // Churn: the hot window rotates through 16 keys, then holds still.
  VariantDispatcher churn(manager, kernel.data(), 0, protoArgs(), Config{},
                          churnOptions());
  const ChurnResult res = runChurn(churn);
  const double stubHitRate =
      1.0 - static_cast<double>(res.resolverEvents) /
                static_cast<double>(res.calls);
  std::printf("  churn: %llu calls, %llu resolver events "
              "(%.1f%% served by the stub), dispatch latency "
              "p50 %.0f / p99 %.0f / p999 %.0f ns\n",
              static_cast<unsigned long long>(res.calls),
              static_cast<unsigned long long>(res.resolverEvents),
              100.0 * stubHitRate, res.p50Ns, res.p99Ns, res.p999Ns);
  std::printf("  demotions: %llu while shifting, %llu in steady state; "
              "peak live variants %zu\n",
              static_cast<unsigned long long>(res.demotionsDuringShifts),
              static_cast<unsigned long long>(res.demotionsSteady),
              res.maxVariantsSeen);
  // Report only: how fast the table follows a shift of the hot set.
  std::vector<uint64_t> adapt = res.adaptCalls;
  std::sort(adapt.begin(), adapt.end());
  std::printf("  adaptation: median %llu calls from a shift until all %d new "
              "hot keys have variants (%zu of %d shifts adapted)\n",
              adapt.empty() ? 0ULL
                            : static_cast<unsigned long long>(
                                  adapt[adapt.size() / 2]),
              kHotSetSize, adapt.size(), kPhases - 2);

  checks.expect(res.maxVariantsSeen <= churnOptions().maxVariants,
                "live variants never exceed the configured budget");
  checks.expect(stubHitRate >= 0.80,
                "steady churn keeps >=80% of calls on the stub fast path");
  checks.expect(res.demotionsDuringShifts >= 1,
                "shifting the hot set retires stale variants");
  checks.expect(res.demotionsSteady <= 2,
                "demotions stabilize once the distribution does (no thrash)");
  checks.expect(res.p99Ns < 100000.0,
                "p99 dispatch latency under 100us during steady state");
  const CacheStats cacheStats = manager.cache().stats();
  checks.expect(cacheStats.codeBytes <= cacheStats.capacityBytes,
                "variant churn keeps cache bytes under the LRU budget");

  // Monomorphic + polymorphic dispatchers for the microbenchmarks, seeded
  // so the timed loops start in steady state.
  VariantDispatcher mono(manager, kernel.data(), 0, protoArgs(), Config{},
                         churnOptions());
  const uint64_t monoHot[] = {3};
  mono.seedHot(monoHot, 1000);
  VariantDispatcher poly(manager, kernel.data(), 0, protoArgs(), Config{},
                         churnOptions());
  const uint64_t polyHot[] = {0, 1, 2, 3};
  poly.seedHot(polyHot, 1000);
  g_mono = &mono;
  g_poly = &poly;

  // Table: per-call cost of each dispatch strategy (best-of-5 bulk loops;
  // the registered microbenchmarks report the same numbers per call).
  PaperTable table("E7", "per-call dispatch cost (extension)");
  constexpr int kBulk = 200000;
  auto monoFn = mono.as<kernel_t>();
  const double monoSec = bestOf(5, [&] {
    for (int i = 0; i < kBulk; ++i) benchmark::DoNotOptimize(monoFn(3, i));
  });
  std::vector<ArgValue> hitArgs = protoArgs();
  hitArgs[0] = ArgValue::fromInt(3);
  (void)manager.rewrite(g_config, {}, g_kernel, hitArgs);  // warm the cache
  const double cachedSec = bestOf(5, [&] {
    for (int i = 0; i < kBulk; ++i) {
      auto hit = manager.rewrite(g_config, {}, g_kernel, hitArgs);
      benchmark::DoNotOptimize(
          reinterpret_cast<kernel_t>(hit->entry())(3, i));
    }
  });
  const double originalSec = bestOf(5, [&] {
    for (int i = 0; i < kBulk; ++i)
      benchmark::DoNotOptimize(g_original(3, i));
  });
  table.addRow("original call (baseline)", -1, originalSec);
  table.addRow("inline-cache stub, monomorphic", -1, monoSec);
  table.addRow("cached SpecManager hit per call", -1, cachedSec);
  table.print();
  std::printf("  per call: original %.1f ns, stub %.1f ns, cache probe "
              "%.1f ns\n",
              originalSec / kBulk * 1e9, monoSec / kBulk * 1e9,
              cachedSec / kBulk * 1e9);

  // The point of the stub: dispatching through it must cost a small
  // fraction of re-probing the specialization cache on every call.
  checks.expectFaster(monoSec, cachedSec, 10.0,
                      "monomorphic stub dispatch is >=10x cheaper than a "
                      "cached SpecManager hit per call");

  benchmark::RegisterBenchmark("BM_OriginalCall", BM_OriginalCall);
  benchmark::RegisterBenchmark("BM_DispatchMonomorphic",
                               BM_DispatchMonomorphic);
  benchmark::RegisterBenchmark("BM_DispatchPolymorphic4",
                               BM_DispatchPolymorphic4);
  benchmark::RegisterBenchmark("BM_CachedManagerHit", BM_CachedManagerHit);
  return finish(checks, argc, argv);
}
