#include "support/telemetry.hpp"

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "support/profiler.hpp"

namespace brew::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Registry storage. Leaked on purpose: the atexit reporters and the
// ExecMemory destructors of static-lifetime benches run during static
// destruction, after any non-leaked registry would already be gone.
// ---------------------------------------------------------------------------

struct Registry {
  Counter counters[static_cast<int>(CounterId::kCount)];
  Gauge gauges[static_cast<int>(GaugeId::kCount)];
  Histogram histograms[static_cast<int>(HistogramId::kCount)];
};

Registry& registry() noexcept {
  static auto* r = new Registry();
  return *r;
}

constexpr const char* kCounterNames[] = {
    "rewrite.attempts",
    "rewrite.failures",
    "trace.instructions",
    "trace.captured",
    "trace.elided",
    "trace.blocks",
    "trace.inlined_calls",
    "trace.kept_calls",
    "trace.resolved_branches",
    "trace.captured_branches",
    "trace.migrations",
    "blocks.started",
    "blocks.chained",
    "blocks.reused",
    "blocks.merged",
    "blocks.side_exits",
    "passes.blocks_merged",
    "passes.loads_eliminated",
    "passes.copies_coalesced",
    "passes.consts_hoisted",
    "passes.loops_vectorized",
    "emit.instructions",
    "emit.code_bytes",
    "emit.pool_bytes",
    "emit.loop_latches_placed",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.insertions",
    "cache.inflight_waits",
    "cache.invalidations",
    "cache.async_installs",
    "cache.fastpath_hits",
    "cache.shard_contention",
    "decode.cache_hits",
    "decode.cache_misses",
    "decode.cache_flushes",
    "dispatch.table_hits",
    "dispatch.misses",
    "dispatch.promotions",
    "dispatch.demotions",
    "dispatch.decay_rounds",
    "dispatch.epoch_bumps",
    "dispatch.stubs_built",
    "dispatch.variant_failures",
    "dispatch.async_respecs",
    "jit.stubs_finalized",
    "jit.stub_bytes",
    "exec.allocations",
    "exec.frees",
    "exec.far_maps",
    "cache.persist_hits",
    "cache.persist_misses",
    "cache.persist_writes",
    "cache.persist_rejects",
    "cache.persist_shared_maps",
};
static_assert(sizeof kCounterNames / sizeof kCounterNames[0] ==
                  static_cast<size_t>(CounterId::kCount),
              "counter name table out of sync with CounterId");

constexpr const char* kGaugeNames[] = {
    "exec.bytes_live",
    "cache.bytes_live",
};
static_assert(sizeof kGaugeNames / sizeof kGaugeNames[0] ==
                  static_cast<size_t>(GaugeId::kCount),
              "gauge name table out of sync with GaugeId");

constexpr const char* kHistogramNames[] = {
    "phase.decode_ns",
    "phase.emulate_ns",
    "phase.emulate_decode_ns",
    "phase.emulate_exec_ns",
    "phase.emulate_shadow_ns",
    "phase.passes_ns",
    "phase.vectorize_ns",
    "phase.emit_ns",
    "phase.chain_ns",
    "phase.install_ns",
    "phase.rewrite_ns",
    "trace.queue_depth",
    "async.queue_latency_ns",
    "async.install_latency_ns",
    "dispatch.resolve_ns",
    "cache.key_ns",
};
static_assert(sizeof kHistogramNames / sizeof kHistogramNames[0] ==
                  static_cast<size_t>(HistogramId::kCount),
              "histogram name table out of sync with HistogramId");

// ---------------------------------------------------------------------------
// Span ring buffers: one per thread, registered globally so writeTrace can
// walk them all (including those of exited threads). The per-buffer mutex
// is only ever contended by an exporter; span recording on the owning
// thread takes it uncontended, and only while tracing is enabled.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;
  uint64_t startNs = 0;
  uint64_t endNs = 0;
  char args[160];
};

struct ThreadBuffer {
  static constexpr size_t kCapacity = 8192;
  std::mutex mu;
  uint64_t tid = 0;
  uint64_t next = 0;  // total spans ever written; ring index = next % cap
  std::unique_ptr<SpanRecord[]> spans =
      std::make_unique<SpanRecord[]>(kCapacity);
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

TraceState& traceState() noexcept {
  static auto* s = new TraceState();
  return *s;
}

std::atomic<bool> g_tracing{false};

ThreadBuffer& threadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->tid = static_cast<uint64_t>(::syscall(SYS_gettid));
    TraceState& state = traceState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// ---------------------------------------------------------------------------
// Environment wiring: BREW_TRACE_FILE enables tracing and writes the trace
// at exit; BREW_STATS=1 prints the summary at exit.
// ---------------------------------------------------------------------------

const char* g_tracePath = nullptr;
bool g_statsAtExit = false;

void atExitReport() {
  if (g_statsAtExit) writeSummary(stderr);
  if (g_tracePath != nullptr) writeTrace(g_tracePath);
}

struct EnvInit {
  EnvInit() {
    if (const char* path = std::getenv("BREW_TRACE_FILE");
        path != nullptr && path[0] != '\0') {
      g_tracePath = path;
      g_tracing.store(true, std::memory_order_relaxed);
    }
    if (const char* stats = std::getenv("BREW_STATS");
        stats != nullptr && stats[0] == '1')
      g_statsAtExit = true;
    if (g_tracePath != nullptr || g_statsAtExit) std::atexit(&atExitReport);
  }
};
EnvInit g_envInit;

void appendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

// Exporters write to "<path>.tmp" and rename into place, so a crash
// mid-export (reachable from the crash handler and atexit paths) never
// leaves a torn file where a previous good export used to be.
bool renameIntoPlace(std::FILE* f, const std::string& tmpPath,
                     const char* path) {
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmpPath.c_str(), path) != 0) {
    std::remove(tmpPath.c_str());
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry accessors
// ---------------------------------------------------------------------------

uint64_t Histogram::quantileFromBuckets(const uint64_t* buckets,
                                        double p) noexcept {
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) total += buckets[i];
  if (total == 0) return 0;
  p = std::min(std::max(p, 0.0), 1.0);
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * total)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank)
      return bucketLowerBound(i) + bucketWidth(i) / 2;
  }
  return bucketLowerBound(kBuckets - 1);
}

uint64_t Histogram::quantile(double p) const noexcept {
  uint64_t copy[kBuckets];
  for (int i = 0; i < kBuckets; ++i) copy[i] = bucket(i);
  return quantileFromBuckets(copy, p);
}

Counter& counter(CounterId id) noexcept {
  return registry().counters[static_cast<int>(id)];
}
Gauge& gauge(GaugeId id) noexcept {
  return registry().gauges[static_cast<int>(id)];
}
Histogram& histogram(HistogramId id) noexcept {
  return registry().histograms[static_cast<int>(id)];
}

const char* counterName(CounterId id) noexcept {
  return kCounterNames[static_cast<int>(id)];
}
const char* histogramName(HistogramId id) noexcept {
  return kHistogramNames[static_cast<int>(id)];
}

Snapshot snapshot() {
  Snapshot out;
  Registry& r = registry();
  out.counters.reserve(static_cast<size_t>(CounterId::kCount));
  for (int i = 0; i < static_cast<int>(CounterId::kCount); ++i)
    out.counters.push_back({kCounterNames[i], r.counters[i].value()});
  out.gauges.reserve(static_cast<size_t>(GaugeId::kCount));
  for (int i = 0; i < static_cast<int>(GaugeId::kCount); ++i)
    out.gauges.push_back({kGaugeNames[i], r.gauges[i].value()});
  out.histograms.reserve(static_cast<size_t>(HistogramId::kCount));
  for (int i = 0; i < static_cast<int>(HistogramId::kCount); ++i) {
    Snapshot::HistogramValue h;
    h.name = kHistogramNames[i];
    h.count = r.histograms[i].count();
    h.sum = r.histograms[i].sum();
    h.max = r.histograms[i].max();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      h.buckets[b] = r.histograms[i].bucket(b);
    out.histograms.push_back(h);
  }
  return out;
}

void resetAll() noexcept {
  Registry& r = registry();
  for (auto& c : r.counters) c.reset();
  for (auto& g : r.gauges) g.reset();
  for (auto& h : r.histograms) h.reset();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

bool tracingEnabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void setTracing(bool enabled) noexcept {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

uint64_t nowNs() noexcept {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

#if defined(__x86_64__)
namespace {
// TSC ticks per nanosecond, measured once against CLOCK_MONOTONIC over a
// ~20µs window (~0.1% accuracy — plenty for phase attribution). Invariant
// TSC is assumed, as on every x86-64 part of the last decade; if the rate
// were to drift the only casualty is phase-time attribution, never
// correctness.
double measureTicksPerNs() noexcept {
  const uint64_t t0 = fastTicks();
  const uint64_t n0 = nowNs();
  uint64_t n1;
  do {
    n1 = nowNs();
  } while (n1 - n0 < 20000);
  const uint64_t t1 = fastTicks();
  const double rate =
      static_cast<double>(t1 - t0) / static_cast<double>(n1 - n0);
  return rate > 0.0 ? rate : 1.0;
}
}  // namespace

uint64_t ticksToNs(uint64_t ticks) noexcept {
  static const double rate = measureTicksPerNs();
  return static_cast<uint64_t>(static_cast<double>(ticks) / rate);
}
#else
uint64_t ticksToNs(uint64_t ticks) noexcept { return ticks; }
#endif

void recordSpan(const char* name, uint64_t startNs, uint64_t endNs,
                const char* argsJson) {
  if (!tracingEnabled() || name == nullptr) return;
  ThreadBuffer& buffer = threadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  SpanRecord& record = buffer.spans[buffer.next % ThreadBuffer::kCapacity];
  ++buffer.next;
  record.name = name;
  record.startNs = startNs;
  record.endNs = endNs >= startNs ? endNs : startNs;
  if (argsJson != nullptr) {
    std::strncpy(record.args, argsJson, sizeof record.args - 1);
    record.args[sizeof record.args - 1] = '\0';
  } else {
    record.args[0] = '\0';
  }
}

bool writeTrace(const char* path) {
  if (path == nullptr) return false;
  const std::string tmpPath = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmpPath.c_str(), "w");
  if (f == nullptr) return false;

  const int pid = static_cast<int>(::getpid());
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;

  // Hold the registry lock across the walk so buffers cannot be added
  // mid-export; each buffer's own lock serializes against its writer.
  TraceState& state = traceState();
  std::lock_guard<std::mutex> registryLock(state.mu);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    const uint64_t total = buffer->next;
    const uint64_t begin =
        total > ThreadBuffer::kCapacity ? total - ThreadBuffer::kCapacity : 0;
    for (uint64_t i = begin; i < total; ++i) {
      const SpanRecord& span = buffer->spans[i % ThreadBuffer::kCapacity];
      std::string name;
      appendJsonEscaped(name, span.name);
      if (!first) std::fputc(',', f);
      first = false;
      // Complete ("X") events; ts/dur are microseconds as doubles, so
      // nanosecond precision survives as fractions.
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%d,\"tid\":%llu",
                   name.c_str(), static_cast<double>(span.startNs) / 1e3,
                   static_cast<double>(span.endNs - span.startNs) / 1e3, pid,
                   static_cast<unsigned long long>(buffer->tid));
      if (span.args[0] != '\0')
        std::fprintf(f, ",\"args\":{%s}", span.args);
      std::fputs("}", f);
    }
  }
  std::fputs("]}\n", f);
  return renameIntoPlace(f, tmpPath, path);
}

void clearTrace() noexcept {
  TraceState& state = traceState();
  std::lock_guard<std::mutex> registryLock(state.mu);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->next = 0;
  }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

bool writeJson(const char* path) {
  if (path == nullptr) return false;
  const std::string tmpPath = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmpPath.c_str(), "w");
  if (f == nullptr) return false;
  const Snapshot snap = snapshot();
  std::fputs("{\n  \"counters\": {", f);
  for (size_t i = 0; i < snap.counters.size(); ++i)
    std::fprintf(f, "%s\n    \"%s\": %llu", i > 0 ? "," : "",
                 snap.counters[i].name,
                 static_cast<unsigned long long>(snap.counters[i].value));
  std::fputs("\n  },\n  \"gauges\": {", f);
  for (size_t i = 0; i < snap.gauges.size(); ++i)
    std::fprintf(f, "%s\n    \"%s\": %lld", i > 0 ? "," : "",
                 snap.gauges[i].name,
                 static_cast<long long>(snap.gauges[i].value));
  std::fputs("\n  },\n  \"histograms\": {", f);
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, "
                 "\"max\": %llu, \"p50\": %llu, \"p99\": %llu, "
                 "\"p999\": %llu, \"buckets\": [",
                 i > 0 ? "," : "", h.name,
                 static_cast<unsigned long long>(h.count),
                 static_cast<unsigned long long>(h.sum),
                 static_cast<unsigned long long>(h.max),
                 static_cast<unsigned long long>(
                     Histogram::quantileFromBuckets(h.buckets, 0.50)),
                 static_cast<unsigned long long>(
                     Histogram::quantileFromBuckets(h.buckets, 0.99)),
                 static_cast<unsigned long long>(
                     Histogram::quantileFromBuckets(h.buckets, 0.999)));
    // Trailing zero buckets are truncated to keep the file small.
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h.buckets[last] == 0) --last;
    for (int b = 0; b <= last; ++b)
      std::fprintf(f, "%s%llu", b > 0 ? "," : "",
                   static_cast<unsigned long long>(h.buckets[b]));
    std::fputs("]}", f);
  }
  std::fputs("\n  }\n}\n", f);
  return renameIntoPlace(f, tmpPath, path);
}

void writeSummary(std::FILE* out) {
  const Snapshot snap = snapshot();
  std::fprintf(out, "=== brew telemetry (pid %d) ===\n",
               static_cast<int>(::getpid()));
  for (const auto& c : snap.counters)
    if (c.value != 0)
      std::fprintf(out, "  %-28s %12llu\n", c.name,
                   static_cast<unsigned long long>(c.value));
  for (const auto& g : snap.gauges)
    if (g.value != 0)
      std::fprintf(out, "  %-28s %12lld\n", g.name,
                   static_cast<long long>(g.value));
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    std::fprintf(
        out,
        "  %-28s count %-8llu avg %-8llu p50 %-8llu p99 %-8llu "
        "p999 %-8llu max %llu\n",
        h.name, static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum / h.count),
        static_cast<unsigned long long>(
            Histogram::quantileFromBuckets(h.buckets, 0.50)),
        static_cast<unsigned long long>(
            Histogram::quantileFromBuckets(h.buckets, 0.99)),
        static_cast<unsigned long long>(
            Histogram::quantileFromBuckets(h.buckets, 0.999)),
        static_cast<unsigned long long>(h.max));
  }
  // The sampling profiler's per-specialization attribution rides along in
  // the same BREW_STATS report (no-op when it never ran).
  prof::writeProfileSummary(out);
}

}  // namespace brew::telemetry
