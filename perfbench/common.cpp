#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/tracer.hpp"
#include "ir/captured.hpp"
#include "isa/decoder.hpp"
#include "pgas/pgas.h"

namespace perfbench {

namespace {

struct SpanInfo {
  const char* name;
  const char* layer;
};

constexpr SpanInfo kSpanInfo[] = {
    {"request", "workload"},
    {"SpecManager::rewrite", "spec_manager"},
    {"makeCacheKey", "spec_manager"},
    {"CodeCache::lookup", "code_cache"},
    {"decodeOne", "isa"},
    {"Tracer::trace", "tracer"},
    {"runPasses", "passes"},
    {"ir::emit", "ir"},
    {"compileSpecialization", "compile"},
    {"dispatch.entry", "dispatch"},
    {"dispatch.direct", "dispatch"},
    {"SpecManager(cacheDir)", "persist"},
    {"Store::probe", "persist"},
    {"Store::write", "persist"},
    {"kernel.spec", "kernel"},
    {"kernel.orig", "kernel"},
    {"kernel.manual", "kernel"},
};
static_assert(std::size(kSpanInfo) == static_cast<size_t>(SpanId::kCount));

const char* spanName(SpanId id) {
  return kSpanInfo[static_cast<size_t>(id)].name;
}

const char* spanLayer(SpanId id) {
  return kSpanInfo[static_cast<size_t>(id)].layer;
}

// Metric values are printed with every digit a double carries.
void printJsonNumber(std::FILE* f, double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::fprintf(f, "%.17g", value);
}

}  // namespace

void Outcome::mismatch(const char* what) {
  if (correct_) std::fprintf(stderr, "perfbench: output mismatch: %s\n", what);
  correct_ = false;
}

void Outcome::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics_[i].name.c_str());
    printJsonNumber(stdout, metrics_[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Samples::add(double value) {
  ++seen_;
  sum_ += value;
  sorted_ = false;
  if (values_.size() < cap_) {
    values_.push_back(value);
    return;
  }
  const uint64_t slot = rng_.below(seen_);
  if (slot < cap_) values_[slot] = value;
}

double Samples::quantile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

OpLog::OpLog(uint64_t startNs, double seconds, int classes)
    : startNs_(startNs),
      windowNs_(static_cast<uint64_t>(seconds * 1e9 / (kWindows + 1)) + 1),
      refs_(classes),
      refNext_(classes, 0),
      refNow_(classes, 0.0) {
  for (int w = 0; w < kWindows; ++w) {
    rel_.emplace_back(size_t{1} << 14, 7 + w);
    abs_.emplace_back(size_t{1} << 14, 7 + w);
  }
}

void OpLog::addRef(int cls, double us) {
  std::vector<double>& refs = refs_[cls];
  if (refs.size() < kRefKeep) {
    refs.push_back(us);
  } else {
    refs[refNext_[cls]] = us;
    refNext_[cls] = (refNext_[cls] + 1) % kRefKeep;
  }
  refNow_[cls] = median(refs);
}

void OpLog::add(int cls, double us, uint64_t nowNs) {
  const uint64_t w = (nowNs - startNs_) / windowNs_;
  if (w == 0 || !hasRef(cls)) return;  // warm-up, or nothing to divide by
  const size_t i = w <= kWindows ? w - 1 : kWindows - 1;
  rel_[i].add(us / refNow_[cls]);
  abs_[i].add(us);
}

template <class Stat>
double OpLog::overWindows(std::vector<Samples>& windows, Stat stat) {
  std::vector<double> values;
  for (Samples& w : windows)
    if (w.seen() != 0) values.push_back(stat(w));
  return median(values);
}

double OpLog::relQuantile(double q) {
  return overWindows(rel_, [q](Samples& w) { return w.quantile(q); });
}

double OpLog::relMean() {
  return overWindows(rel_, [](Samples& w) { return w.mean(); });
}

double OpLog::quantile(double q) {
  return overWindows(abs_, [q](Samples& w) { return w.quantile(q); });
}

namespace {

uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

References::References()
    : stencil_(brew::stencil::fivePoint()), src_(64, 64), dst_(64, 64) {
  // Fixed inputs, whatever the seed: a reference is the same work in every
  // run.
  src_.fillDeterministic(42);
  brew::Prng rng(42);
  for (int k = 0; k < 64; ++k) {
    std::vector<uint8_t>& key = keys_.emplace_back(256);
    for (uint8_t& b : key) b = static_cast<uint8_t>(rng.below(256));
    map_.emplace(fnv1a(key), std::make_shared<uint64_t>(k));
  }
}

double References::compute() {
  const uint64_t t0 = nowNs();
  brew_stencil_sweep(dst_.data(), src_.data(), 64, 64, &brew_stencil_apply,
                     &stencil_);
  return static_cast<double>(nowNs() - t0) / 1e3;
}

double References::lookup() {
  const uint64_t t0 = nowNs();
  for (int i = 0; i < 16; ++i) {
    const uint64_t h = fnv1a(keys_[nextKey_]);
    nextKey_ = (nextKey_ + 1) % keys_.size();
    std::shared_ptr<uint64_t> entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = map_.find(h);
      if (it != map_.end()) entry = it->second;
    }
    if (entry) sink_ += *entry;
  }
  return static_cast<double>(nowNs() - t0) / 1e3;
}


double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Spans::open(SpanId id) {
  uint32_t index = UINT32_MAX;
  const uint64_t start = nowNs();
  if (raw_.size() < kKeepRaw) {
    index = static_cast<uint32_t>(raw_.size());
    const int32_t parent =
        stack_.empty() || stack_.back().index == UINT32_MAX
            ? -1
            : static_cast<int32_t>(stack_.back().index);
    raw_.push_back(Raw{id, request_, parent, start, 0});
  }
  stack_.push_back(Open{id, start, 0, index});
}

void Spans::close(SpanId id) {
  const uint64_t end = nowNs();
  const Open top = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - top.start;
  Agg& agg = aggs_[static_cast<size_t>(id)];
  ++agg.count;
  agg.totalNs += duration;
  agg.selfNs += duration > top.childNs ? duration - top.childNs : 0;
  if (!stack_.empty()) stack_.back().childNs += duration;
  if (top.index != UINT32_MAX) raw_[top.index].end = end;
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Raw& r : raw_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"request\":%u,"
                 "\"parent\":%d,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 spanName(r.id), spanLayer(r.id), r.request, r.parent,
                 static_cast<unsigned long long>(r.start),
                 static_cast<unsigned long long>(r.end));
  for (size_t i = 0; i < static_cast<size_t>(SpanId::kCount); ++i) {
    const Agg& agg = aggs_[i];
    if (agg.count == 0) continue;
    const auto id = static_cast<SpanId>(i);
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"layer\":\"%s\",\"count\":%llu,"
                 "\"total_ns\":%llu,\"self_ns\":%llu}\n",
                 spanName(id), spanLayer(id),
                 static_cast<unsigned long long>(agg.count),
                 static_cast<unsigned long long>(agg.totalNs),
                 static_cast<unsigned long long>(agg.selfNs));
  }
  return std::fclose(f) == 0;
}

void Ledger::replay(const ColdRequest& request, Spans& spans) {
  Record& rec = records.emplace_back();
  // Each part is timed inside its span, so span bookkeeping stays out of
  // the parts the ledger compares with the live miss.
  uint64_t t0 = 0;
  brew::CacheKey key;
  {
    auto span = spans.span(SpanId::CacheKey);
    t0 = nowNs();
    key = brew::makeCacheKey(request.config, request.passes, request.fn,
                             request.args);
    rec.keyNs = nowNs() - t0;
  }
  {
    auto span = spans.span(SpanId::CacheLookup);
    t0 = nowNs();
    (void)emptyCache.lookup(key);
    rec.lookupNs = nowNs() - t0;
  }

  brew::Tracer tracer(request.config);
  brew::Result<brew::ir::CapturedFunction> captured = [&] {
    auto span = spans.span(SpanId::Trace);
    t0 = nowNs();
    auto result =
        tracer.trace(reinterpret_cast<uint64_t>(request.fn), request.args);
    rec.traceNs = nowNs() - t0;
    return result;
  }();
  if (!captured.ok()) {
    rec.ok = false;
    return;
  }
  const brew::TraceStats& ts = tracer.stats();
  rec.tracedInstrs = ts.tracedInstructions;
  rec.capturedInstrs = ts.capturedInstructions;
  rec.blocks = ts.blocks;

  const size_t before = captured->totalInstructions();
  {
    auto span = spans.span(SpanId::Passes);
    t0 = nowNs();
    brew::runPasses(*captured, request.passes);
    rec.passesNs = nowNs() - t0;
  }
  const size_t after = captured->totalInstructions();
  rec.instrsRemoved = before > after ? before - after : 0;

  brew::ir::EmitStats emitStats;
  brew::Result<brew::ExecMemory> memory = [&] {
    auto span = spans.span(SpanId::Emit);
    t0 = nowNs();
    auto result = brew::ir::emit(*captured, request.config.limits().maxCodeBytes,
                                 &emitStats);
    rec.emitNs = nowNs() - t0;
    return result;
  }();
  if (!memory.ok()) {
    rec.ok = false;
    return;
  }
  rec.codeBytes = emitStats.codeBytes;
  rec.poolBytes = emitStats.poolBytes;
}

double Ledger::report(Outcome& out) const {
  std::vector<double> live, parts;
  for (const Record& r : records) {
    live.push_back(r.liveUs);
    parts.push_back(r.partsUs());
  }
  const double liveLimit = kStallFactor * median(live);
  const double partsLimit = kStallFactor * median(parts);
  Record sum;  // times over unstalled pairs, counts over all
  double missUs = 0;
  size_t kept = 0;
  uint64_t keptTraced = 0;  // traced instructions of the unstalled pairs
  for (const Record& r : records) {
    if (!r.ok) out.mismatch("ledger replay failed");
    sum.tracedInstrs += r.tracedInstrs;
    sum.capturedInstrs += r.capturedInstrs;
    sum.blocks += r.blocks;
    sum.instrsRemoved += r.instrsRemoved;
    sum.codeBytes += r.codeBytes;
    sum.poolBytes += r.poolBytes;
    if (r.liveUs > liveLimit || r.partsUs() > partsLimit) continue;
    ++kept;
    keptTraced += r.tracedInstrs;
    missUs += r.liveUs;
    sum.keyNs += r.keyNs;
    sum.lookupNs += r.lookupNs;
    sum.traceNs += r.traceNs;
    sum.passesNs += r.passesNs;
    sum.emitNs += r.emitNs;
  }
  const double n = kept == 0 ? 1.0 : static_cast<double>(kept);
  missUs /= n;
  const double traceUs = sum.traceNs / n / 1e3;
  const double passesUs = sum.passesNs / n / 1e3;
  const double emitUs = sum.emitNs / n / 1e3;
  const double keyUs = sum.keyNs / n / 1e3;
  const double lookupUs = sum.lookupNs / n / 1e3;
  out.add("tracer.trace_us", traceUs, "us");
  out.add("tracer.ns_per_traced_instr",
          keptTraced == 0 ? 0.0
                          : static_cast<double>(sum.traceNs) / keptTraced,
          "ns");
  out.add("tracer.traced_instrs", static_cast<double>(sum.tracedInstrs),
          "count");
  out.add("tracer.captured_instrs", static_cast<double>(sum.capturedInstrs),
          "count");
  out.add("tracer.blocks", static_cast<double>(sum.blocks), "count");
  out.add("passes.us", passesUs, "us");
  out.add("passes.instrs_removed", static_cast<double>(sum.instrsRemoved),
          "count");
  out.add("ir.emit_us", emitUs, "us");
  out.add("ir.code_bytes", static_cast<double>(sum.codeBytes), "bytes");
  out.add("ir.pool_bytes", static_cast<double>(sum.poolBytes), "bytes");
  // The ledger: miss latency = key + lookup + trace + passes + emit +
  // residual (install, persistence and anything unattributed).
  const double residual =
      missUs - (keyUs + lookupUs + traceUs + passesUs + emitUs);
  out.add("spec_manager.miss_us", missUs, "us");
  out.add("compile.key_us", keyUs, "us");
  out.add("compile.lookup_us", lookupUs, "us");
  out.add("compile.residual_us", residual, "us");
  out.add("compile.residual_share", missUs > 0 ? residual / missUs : 0.0,
          "share");
  return residual;
}

size_t decodeSubject(const void* fn, size_t maxInstrs, Spans& spans) {
  auto span = spans.span(SpanId::Decode);
  auto address = reinterpret_cast<uint64_t>(fn);
  size_t count = 0;
  while (count < maxInstrs) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(address);
    auto instr = brew::isa::decodeOne(std::span<const uint8_t>(bytes, 15),
                                      address);
    if (!instr.ok() || instr->length == 0) break;
    ++count;
    if (instr->mnemonic == brew::isa::Mnemonic::Ret) break;
    address += instr->length;
  }
  return count;
}

brew::Config stencilConfig(size_t bytes) {
  brew::Config config;
  config.setParamKnown(1);            // xs
  config.setParamKnownPtr(2, bytes);  // the stencil description
  config.setReturnKind(brew::ReturnKind::Float);
  return config;
}

brew::Config pgasReadConfig() {
  brew::Config config;
  config.setParamKnownPtr(0, sizeof(brew_pgas_view));
  config.setReturnKind(brew::ReturnKind::Float);
  config.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_read),
      brew::FunctionOptions{.inlineCalls = false, .pure = true});
  return config;
}

brew::Config pgasWriteConfig() {
  brew::Config config;
  config.setParamKnownPtr(0, sizeof(brew_pgas_view));
  config.setParamFloat(2);  // the stored value (SSE argument class)
  config.setReturnKind(brew::ReturnKind::Void);
  config.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_write),
      brew::FunctionOptions{.inlineCalls = false});
  return config;
}

}  // namespace perfbench
