// Telemetry registry and phase-tracing tests: instrument correctness,
// multi-threaded increments, trace-event JSON export (well-formed, spans
// nest), the metrics JSON exporter, and the brew_telemetry_* C API view.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/brew.h"
#include "core/rewriter.hpp"
#include "jit/assembler.hpp"
#include "support/telemetry.hpp"

namespace brew::telemetry {
namespace {

std::string slurp(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Locates the span named `name` in a trace dump and returns [ts, ts+dur)
// in microseconds (the writer emits name before ts/dur).
bool findSpan(const std::string& json, const char* name, double* begin,
              double* end) {
  const std::string needle = std::string("\"name\":\"") + name + "\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  double ts = 0, dur = 0;
  if (std::sscanf(json.c_str() + at + needle.size(),
                  ",\"ph\":\"X\",\"ts\":%lf,\"dur\":%lf", &ts, &dur) != 2)
    return false;
  *begin = ts;
  *end = ts + dur;
  return true;
}

TEST(TelemetryCounter, AddAndReset) {
  Counter& c = counter(CounterId::RewriteAttempts);
  const uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  EXPECT_STREQ(counterName(CounterId::RewriteAttempts), "rewrite.attempts");
}

TEST(TelemetryGauge, UpAndDown) {
  Gauge& g = gauge(GaugeId::CacheBytesLive);
  const int64_t before = g.value();
  g.add(4096);
  g.sub(96);
  EXPECT_EQ(g.value(), before + 4000);
  g.sub(4000);
  EXPECT_EQ(g.value(), before);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  // Two-level HDR layout: bucket 0 holds zeros, then 16 linear sub-buckets
  // per power-of-two major. Values below 2^kMinorBits get single-value
  // buckets; above that, each bucket spans ~1/16 of its octave.
  EXPECT_EQ(Histogram::bucketFor(0), 0);
  EXPECT_EQ(Histogram::bucketFor(1), 1);
  EXPECT_EQ(Histogram::bucketFor(2), 17);   // major 2, minor 0
  EXPECT_EQ(Histogram::bucketFor(3), 18);   // major 2, minor 1
  EXPECT_EQ(Histogram::bucketFor(4), 33);   // major 3, minor 0
  EXPECT_EQ(Histogram::bucketFor(1023), 160);
  EXPECT_EQ(Histogram::bucketFor(1024), 161);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), Histogram::kBuckets - 1);

  // bucketLowerBound inverts bucketFor on every bucket edge.
  for (const uint64_t v : {uint64_t{1}, uint64_t{2}, uint64_t{15},
                           uint64_t{16}, uint64_t{1000}, uint64_t{1 << 20},
                           uint64_t{0x123456789abcULL}}) {
    const int b = Histogram::bucketFor(v);
    EXPECT_LE(Histogram::bucketLowerBound(b), v) << v;
    EXPECT_GT(Histogram::bucketLowerBound(b) + Histogram::bucketWidth(b), v)
        << v;
  }
}

TEST(TelemetryHistogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // Sub-buckets are ~1/16 of an octave wide and the estimate returns the
  // bucket midpoint, so ~8% relative error bounds the answer.
  const auto near = [](uint64_t got, uint64_t want) {
    const double rel =
        (static_cast<double>(got) - static_cast<double>(want)) /
        static_cast<double>(want);
    return rel > -0.08 && rel < 0.08;
  };
  EXPECT_TRUE(near(h.quantile(0.50), 500)) << h.quantile(0.50);
  EXPECT_TRUE(near(h.quantile(0.99), 990)) << h.quantile(0.99);
  EXPECT_TRUE(near(h.quantile(0.999), 999)) << h.quantile(0.999);
  EXPECT_EQ(h.quantile(0.0), 1u);

  // Single-value buckets (values < 2^kMinorBits) are exact.
  Histogram exact;
  for (int i = 0; i < 100; ++i) exact.record(5);
  EXPECT_EQ(exact.quantile(0.5), 5u);
  EXPECT_EQ(exact.quantile(0.999), 5u);

  // Empty histogram: quantile is 0, not a crash.
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);

  // The static form sees the same buckets the C API snapshot copies out.
  uint64_t raw[Histogram::kBuckets];
  for (int i = 0; i < Histogram::kBuckets; ++i) raw[i] = h.bucket(i);
  EXPECT_EQ(Histogram::quantileFromBuckets(raw, 0.50), h.quantile(0.50));
}

TEST(TelemetryHistogram, RecordAggregates) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(100);
  h.record(7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 108u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucketFor(100)), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// The rewriter splits the trace window into emulate_decode/exec/shadow;
// by construction the three parts sum exactly to the decode+emulate whole
// (same stamps, same clock), per rewrite and therefore over any number of
// rewrites. Histogram sums are exact (only buckets are approximate), so
// the deltas must match to the nanosecond.
TEST(TelemetryPhases, EmulateSplitSumsToWhole) {
  jit::Assembler as;
  as.movRegImm(isa::Reg::rax, 0);
  for (int i = 0; i < 8; ++i)
    as.aluRegReg(isa::Mnemonic::Add, isa::Reg::rax, isa::Reg::rdi);
  as.ret();
  auto fn = as.finalizeExecutable();
  ASSERT_TRUE(fn.ok()) << fn.error().message();

  Histogram& whole0 = histogram(HistogramId::PhaseDecodeNs);
  Histogram& whole1 = histogram(HistogramId::PhaseEmulateNs);
  Histogram& partDecode = histogram(HistogramId::PhaseEmulateDecodeNs);
  Histogram& partExec = histogram(HistogramId::PhaseEmulateExecNs);
  Histogram& partShadow = histogram(HistogramId::PhaseEmulateShadowNs);
  const uint64_t wholeSum = whole0.sum() + whole1.sum();
  const uint64_t partSum = partDecode.sum() + partExec.sum() + partShadow.sum();
  const uint64_t partCount = partDecode.count();

  constexpr int kRewrites = 5;
  for (int i = 0; i < kRewrites; ++i) {
    Rewriter rewriter{Config{}};
    auto rewritten = rewriter.rewrite(fn->data(), 3);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
    EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(3), 24);
  }

  EXPECT_EQ(partDecode.count() - partCount, uint64_t{kRewrites});
  EXPECT_EQ(partExec.count(), partDecode.count());
  EXPECT_EQ(partShadow.count(), partDecode.count());
  const uint64_t wholeDelta = whole0.sum() + whole1.sum() - wholeSum;
  const uint64_t partDelta =
      partDecode.sum() + partExec.sum() + partShadow.sum() - partSum;
  EXPECT_EQ(partDelta, wholeDelta);
}

TEST(TelemetryRace, EightThreadIncrements) {
  Counter& c = counter(CounterId::TraceInstructions);
  Histogram& h = histogram(HistogramId::TraceQueueDepth);
  const uint64_t cBefore = c.value();
  const uint64_t hBefore = h.count();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<uint64_t>(i));
      }
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value() - cBefore, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.count() - hBefore, uint64_t{kThreads} * kPerThread);
  EXPECT_GE(h.max(), uint64_t{kPerThread - 1});
}

TEST(TelemetrySnapshot, NamesEveryInstrument) {
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counters.size(),
            static_cast<size_t>(CounterId::kCount));
  EXPECT_EQ(snap.gauges.size(), static_cast<size_t>(GaugeId::kCount));
  EXPECT_EQ(snap.histograms.size(),
            static_cast<size_t>(HistogramId::kCount));
  for (const auto& c : snap.counters) EXPECT_NE(c.name, nullptr);
  for (const auto& h : snap.histograms) EXPECT_NE(h.name, nullptr);
}

TEST(TelemetryTrace, SpansNestInExportedJson) {
  clearTrace();
  setTracing(true);
  // A synthetic rewrite-shaped tree with fully controlled timestamps.
  const uint64_t t0 = nowNs();
  recordSpan("tt_decode", t0 + 1000, t0 + 2000);
  recordSpan("tt_emit", t0 + 2000, t0 + 5000);
  recordSpan("tt_rewrite", t0 + 1000, t0 + 6000,
             "\"fn\":\"brew::probe@deadbeef\"");
  setTracing(false);

  char path[] = "/tmp/brew_trace_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  ASSERT_TRUE(writeTrace(path));
  const std::string json = slurp(path);
  std::remove(path);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("brew::probe@deadbeef"), std::string::npos);

  double decodeB = 0, decodeE = 0, emitB = 0, emitE = 0, rwB = 0, rwE = 0;
  ASSERT_TRUE(findSpan(json, "tt_decode", &decodeB, &decodeE));
  ASSERT_TRUE(findSpan(json, "tt_emit", &emitB, &emitE));
  ASSERT_TRUE(findSpan(json, "tt_rewrite", &rwB, &rwE));
  // Children fall inside the parent and do not overlap each other.
  EXPECT_GE(decodeB, rwB);
  EXPECT_LE(decodeE, rwE);
  EXPECT_GE(emitB, decodeE);
  EXPECT_LE(emitE, rwE);
  clearTrace();
}

TEST(TelemetryTrace, DisabledRecordsNothing) {
  clearTrace();
  setTracing(false);
  recordSpan("tt_invisible", 100, 200);

  char path[] = "/tmp/brew_trace_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  ASSERT_TRUE(writeTrace(path));
  const std::string json = slurp(path);
  std::remove(path);
  EXPECT_EQ(json.find("tt_invisible"), std::string::npos);
}

TEST(TelemetryTrace, SpanScopeRecordsWithArgs) {
  // A span carries its args as a pre-rendered JSON fragment, as the
  // rewriter's "rewrite" span does.
  clearTrace();
  setTracing(true);
  const uint64_t start = nowNs();
  recordSpan("tt_scope", start, nowNs(), "\"fn\":\"0xabcd\",\"key\":\"k1\"");
  setTracing(false);

  char path[] = "/tmp/brew_trace_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  ASSERT_TRUE(writeTrace(path));
  const std::string json = slurp(path);
  std::remove(path);
  EXPECT_NE(json.find("\"tt_scope\""), std::string::npos);
  EXPECT_NE(json.find("\"fn\":\"0xabcd\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"k1\""), std::string::npos);
  clearTrace();
}

TEST(TelemetryJson, ExportsRegistry) {
  counter(CounterId::RewriteAttempts).add();
  char path[] = "/tmp/brew_metrics_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  ASSERT_TRUE(writeJson(path));
  const std::string json = slurp(path);
  std::remove(path);
  EXPECT_NE(json.find("\"rewrite.attempts\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.emit_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(TelemetryJson, AtomicExportLeavesNoTmp) {
  // Crash-safe exports: both writers stage into "<path>.tmp" and rename,
  // so a reader never sees a torn file and no temporary survives success.
  char path[] = "/tmp/brew_atomic_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  ASSERT_TRUE(writeJson(path));
  EXPECT_NE(slurp(path).find("\"counters\""), std::string::npos);
  std::FILE* tmp = std::fopen((std::string(path) + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr) << "writeJson left its staging file";
  if (tmp != nullptr) std::fclose(tmp);

  ASSERT_TRUE(writeTrace(path));
  tmp = std::fopen((std::string(path) + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr) << "writeTrace left its staging file";
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path);

  // An unwritable destination fails cleanly and leaves nothing behind.
  EXPECT_FALSE(writeJson("/nonexistent_dir_brew/metrics.json"));
}

TEST(TelemetryCapi, SnapshotMirrorsRegistry) {
  counter(CounterId::CacheHits).add(3);
  brew_telemetry snap{};
  brew_telemetry_snapshot(&snap);
  EXPECT_EQ(snap.counter_count, static_cast<size_t>(CounterId::kCount));
  bool found = false;
  for (size_t i = 0; i < snap.counter_count; ++i) {
    if (std::strcmp(snap.counters[i].name, "cache.hits") != 0) continue;
    found = true;
    EXPECT_EQ(snap.counters[i].value,
              counter(CounterId::CacheHits).value());
  }
  EXPECT_TRUE(found);
  EXPECT_GE(snap.histogram_count, static_cast<size_t>(HistogramId::kCount));
}

}  // namespace
}  // namespace brew::telemetry
