// Process-wide rewrite-pipeline telemetry (paper §VIII names debugging and
// tooling for runtime-generated code an open problem; this is the
// measurement half of the answer).
//
// Three parts:
//
//  - A metrics REGISTRY of fixed, named instruments: monotonic counters,
//    up/down gauges and two-level HDR-style histograms (log2 major /
//    linear minor buckets, so p50/p99/p999 resolve to ~6%). All slots are
//    relaxed
//    atomics — incrementing from the rewrite hot path is one uncontended
//    atomic add, never a lock. Instruments are enumerated at compile time
//    so lookup is an array index.
//
//  - A phase timeline TRACER: spans with explicit timestamps (recordSpan)
//    recorded into per-thread ring buffers and exported as Chrome
//    trace-event JSON ("Perfetto" / chrome://tracing loadable). Off by
//    default; enabled by BREW_TRACE_FILE=<path> (written at exit) or
//    setTracing(true) + writeTrace(). When disabled a span costs one
//    relaxed load.
//
//  - EXPORTERS: snapshot() for programmatic access (the brew_telemetry_*
//    C API wraps it), writeJson() for machine-readable metrics,
//    writeSummary() for the BREW_STATS=1 atexit human-readable report.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace brew::telemetry {

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

enum class CounterId : int {
  RewriteAttempts,        // compileSpecialization entered
  RewriteFailures,        // trace or emit returned an error
  TraceInstructions,      // instructions emulated
  TraceCaptured,          // instructions placed in output blocks
  TraceElided,            // folded away by partial evaluation
  TraceBlocks,            // blocks captured
  TraceInlinedCalls,
  TraceKeptCalls,
  TraceResolvedBranches,
  TraceCapturedBranches,
  TraceMigrations,        // variant-threshold state migrations
  BlocksStarted,          // logical basic blocks opened by the tracer
  BlocksChained,          // forward edges continued inline (no fork)
  BlocksReused,           // edges resolved to an existing block variant
  BlocksMerged,           // reconvergence meets into a pending variant
  BlocksSideExits,        // fork-depth cap hit: side-exit stub emitted
  PassBlocksMerged,
  PassLoadsEliminated,    // cross-iteration re-loads replaced by reg reuse
  PassCopiesCoalesced,    // XMM copies swapped/propagated away
  PassConstsHoisted,      // registers whose pool constant loads at entry
  PassLoopsVectorized,    // kept loops given a two-lane packed body
  EmitInstructions,
  EmitCodeBytes,
  EmitPoolBytes,
  EmitLoopLatches,        // latch stubs laid out right before their header
  CacheHits,
  CacheMisses,
  CacheEvictions,
  CacheInsertions,
  CacheInFlightWaits,
  CacheInvalidations,
  CacheAsyncInstalls,
  CacheFastpathHits,      // hits served by the lock-free seqlock hit table
  CacheShardContention,   // shard mutex acquisitions that had to wait
  DecodeCacheHits,        // decoded-instruction cache (isa/decode_cache)
  DecodeCacheMisses,
  DecodeCacheFlushes,     // thread-local flushes after a code-mutation epoch
  DispatchTableHits,      // variant-table hits on the IC-miss slow path
  DispatchMisses,         // resolver calls with no live variant for the key
  DispatchPromotions,     // hot value specialized into a live variant
  DispatchDemotions,      // cold variant retired by decay/hysteresis
  DispatchDecayRounds,    // decay windows elapsed (variant/miss score halvings)
  DispatchEpochBumps,     // predicate-epoch changes retiring all variants
  DispatchStubsBuilt,     // inline-cache dispatch stubs emitted
  DispatchVariantFailures, // candidate rewrite failed; key is blacklisted
  DispatchAsyncRespecs,   // respecializations submitted to the worker pool
  JitStubsFinalized,      // Assembler::finalizeExecutable successes
  JitStubBytes,
  ExecAllocations,
  ExecFrees,
  ExecFarMaps,            // anchored allocations placed outside the window
  PersistHits,            // on-disk cache entries loaded (trace skipped)
  PersistMisses,          // probes that found no usable entry
  PersistWrites,          // entries written (tmp + rename) to the store
  PersistRejects,         // entries rejected: corrupt/stale/unresolvable
  PersistSharedMaps,      // loads mapped read-only from the entry file
  kCount
};

enum class GaugeId : int {
  ExecBytesLive,          // mapped generated-code bytes currently live
  CacheBytesLive,         // bytes currently held by code caches
  kCount
};

enum class HistogramId : int {
  PhaseDecodeNs,          // per rewrite: time inside the instruction decoder
  PhaseEmulateNs,         // per rewrite: trace/emulate time minus decode
  PhaseEmulateDecodeNs,   // emulate sub-span: instruction decode
  PhaseEmulateExecNs,     // emulate sub-span: abstract execution proper
  PhaseEmulateShadowNs,   // emulate sub-span: state snapshots + variant keys
  PhasePassesNs,
  PhaseVectorizeNs,       // both cross-iteration passes inside runPasses
  PhaseEmitNs,
  PhaseChainNs,           // emit sub-span: block layout + jump relocation
  PhaseInstallNs,         // registration + block adoption / publication
  RewriteNs,              // whole compileSpecialization
  TraceQueueDepth,        // branch-fork pending queue depth, sampled per block
  AsyncQueueLatencyNs,    // enqueue -> worker pickup
  AsyncInstallLatencyNs,  // enqueue -> specialized code published
  DispatchResolveNs,      // inline-cache miss resolver, per call
  CacheKeyNs,             // SpecManager::rewrite key build, 1 call in 64
  kCount
};

class Counter {
 public:
  void add(uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void add(int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Two-level HDR-style histogram: a log2 MAJOR level (one per bit width,
// 64 of them) subdivided into 2^kMinorBits linear MINOR buckets, plus one
// bucket for zeros. Values land in a bucket whose width is at most
// 2^(major-1)/16 — a bounded ~6% relative error at any magnitude, which is
// what makes quantile(p) meaningful for p99/p999 tail reporting (the old
// single-level log2 scheme could only bound a percentile to within 2x).
// record() is still 3 relaxed atomic adds plus a CAS loop only when a new
// max is observed.
class Histogram {
 public:
  static constexpr int kMinorBits = 4;           // 16 linear sub-buckets
  static constexpr int kMinors = 1 << kMinorBits;
  static constexpr int kMajors = 64;             // one per bit width
  static constexpr int kBuckets = kMajors * kMinors + 1;  // +1 zero bucket

  static int bucketFor(uint64_t v) noexcept {
    if (v == 0) return 0;
    const int major = 64 - __builtin_clzll(v);   // bit_width, 1..64
    const int shift = major - 1 - kMinorBits;
    const int minor =
        shift > 0 ? static_cast<int>((v >> shift) & (kMinors - 1))
                  : static_cast<int>(v - (uint64_t{1} << (major - 1)));
    return 1 + (major - 1) * kMinors + minor;
  }

  // Smallest value that maps to bucket i (0 for the zero bucket).
  static uint64_t bucketLowerBound(int i) noexcept {
    if (i <= 0) return 0;
    const int major = (i - 1) / kMinors + 1;
    const int minor = (i - 1) % kMinors;
    const uint64_t base = uint64_t{1} << (major - 1);
    const int shift = major - 1 - kMinorBits;
    const auto m = static_cast<uint64_t>(minor);
    return base + (shift > 0 ? (m << shift) : m);
  }

  // Width of bucket i in value space (1 for the zero bucket and the
  // single-value low buckets).
  static uint64_t bucketWidth(int i) noexcept {
    if (i <= 0) return 1;
    const int major = (i - 1) / kMinors + 1;
    const int shift = major - 1 - kMinorBits;
    return shift > 0 ? (uint64_t{1} << shift) : 1;
  }

  // Quantile estimate over a raw bucket array (shared with Snapshot
  // consumers): walks to the bucket holding rank ceil(p*count) and returns
  // its midpoint representative. Exact for single-value buckets, within
  // the ~6% bucket width otherwise. Returns 0 for an empty histogram.
  static uint64_t quantileFromBuckets(const uint64_t* buckets,
                                      double p) noexcept;

  void record(uint64_t v) noexcept {
    buckets_[bucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Quantile estimate from the live buckets; p in [0,1].
  uint64_t quantile(double p) const noexcept;
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Registry accessors. The instrument tables are allocated once and leaked
// so the atexit reporters can run during static destruction.
Counter& counter(CounterId id) noexcept;
Gauge& gauge(GaugeId id) noexcept;
Histogram& histogram(HistogramId id) noexcept;

const char* counterName(CounterId id) noexcept;
const char* histogramName(HistogramId id) noexcept;

// Point-in-time copy of every instrument.
struct Snapshot {
  struct CounterValue {
    const char* name;
    uint64_t value;
  };
  struct GaugeValue {
    const char* name;
    int64_t value;
  };
  struct HistogramValue {
    const char* name;
    uint64_t count;
    uint64_t sum;
    uint64_t max;
    uint64_t buckets[Histogram::kBuckets];
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};
Snapshot snapshot();

// Zeroes every counter/gauge/histogram (tests, phase boundaries).
void resetAll() noexcept;

// ---------------------------------------------------------------------------
// Phase timeline tracing
// ---------------------------------------------------------------------------

bool tracingEnabled() noexcept;
void setTracing(bool enabled) noexcept;

// Monotonic nanoseconds (CLOCK_MONOTONIC; matches the jitdump clock so a
// perf timeline and a BREW trace line up).
uint64_t nowNs() noexcept;

// Cheap monotonic tick source for high-frequency interval accumulation on
// hot paths (the tracer's shadow-time bookkeeping takes dozens of readings
// per rewrite; clock_gettime there is measurable). x86-64 reads the
// invariant TSC (~5ns vs ~20ns); elsewhere it falls back to nowNs() and
// ticksToNs is the identity. Tick deltas are only meaningful through
// ticksToNs, which calibrates the tick rate once per process.
#if defined(__x86_64__)
inline uint64_t fastTicks() noexcept { return __builtin_ia32_rdtsc(); }
#else
inline uint64_t fastTicks() noexcept { return nowNs(); }
#endif
uint64_t ticksToNs(uint64_t ticks) noexcept;

// Records a completed span with explicit timestamps into the calling
// thread's ring buffer. `argsJson`, when given, is a pre-rendered JSON
// object-body fragment (e.g. "\"fn\":\"0x1234\"") attached as the span's
// args. No-op while tracing is disabled.
void recordSpan(const char* name, uint64_t startNs, uint64_t endNs,
                const char* argsJson = nullptr);

// Writes every recorded span as Chrome trace-event JSON ({"traceEvents":
// [...]}). Returns false if the file cannot be written. Spans survive
// thread exit; the buffer keeps the most recent ~8k spans per thread.
bool writeTrace(const char* path);

// Drops all recorded spans (tests).
void clearTrace() noexcept;

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

// Machine-readable metrics snapshot (counters, gauges, histograms with
// buckets) as a JSON object. Returns false on I/O failure.
bool writeJson(const char* path);

// Human-readable metrics dump (the BREW_STATS=1 atexit report).
void writeSummary(std::FILE* out);

}  // namespace brew::telemetry
