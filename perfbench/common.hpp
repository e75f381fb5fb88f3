// Shared plumbing of the BREW end-to-end benchmark: run options, the result
// record, exact-quantile sample sets, the span recorder used by traced runs,
// and the cold-request ledger (a cold rewrite replayed layer by layer through
// the public Tracer -> runPasses -> ir::emit surface).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "stencil/stencil.hpp"
#include "support/prng.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir;    // private working directory inside the checkout
  std::string spansPath;  // traced runs write their raw spans here
  int nproc = 1;          // CPUs this process may run on
  int clientThreads = 1;  // closed-loop callers (always one)
  int workers = 1;        // SpecManager worker pool size
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 15;

// Runs one set-up repetition on a fresh thread and returns its duration in
// seconds. The library keeps per-thread state (the decoder's instruction
// cache, pass and emit scratch), so each repetition starts as cold as the
// first set-up of a new process; repeating set-up on one thread would time
// warm decodes from the second repetition on. `setup` returns false when it
// failed; the result is then stored in `*ok`.
template <class Setup>
double coldSetupSeconds(Setup&& setup, bool* ok) {
  double seconds = 0;
  std::thread([&] {
    const uint64_t t0 = nowNs();
    *ok = setup();
    seconds = static_cast<double>(nowNs() - t0) / 1e9;
  }).join();
  return seconds;
}

// The result of one run: operations attempted and failed, whether every
// checked output matched its oracle, and the named metrics.
class Outcome {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  // One operation attempted; `ok` false counts it failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // An output that differs from its oracle: fails the run's correctness.
  void mismatch(const char* what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the final JSON line (the last line of standard output).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// Latency samples with exact quantiles. Beyond `cap` samples it keeps a
// uniform reservoir (seeded, so runs repeat), which bounds memory on
// workloads that complete millions of operations.
class Samples {
 public:
  Samples(size_t cap, uint64_t seed) : cap_(cap), rng_(seed) {}
  void add(double value);
  size_t seen() const { return seen_; }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q);
  // Mean of every value added, kept or not; 0 when empty.
  double mean() const { return seen_ == 0 ? 0.0 : sum_ / seen_; }

 private:
  size_t cap_;
  size_t seen_ = 0;
  double sum_ = 0;
  bool sorted_ = false;
  brew::Prng rng_;
  std::vector<double> values_;
};

double median(std::vector<double> values);

// Operation times of a timed loop, each divided by the time of a reference
// operation of its class. On a shared host the speed of a whole process
// changes by up to 2x, in stretches from seconds to minutes (other
// tenants), and by how much depends on the code: sweeps and rewrites slow
// down with it, cache hits and system calls hardly at all. A reference is fixed work with the same bottleneck as its class of
// operations, run between them by the workload, so an operation's time
// over its reference time cancels the machine's state. Each operation is
// divided by the median of the latest kRefKeep reference times of its
// class; operations of a class that has no reference time yet are dropped.
//
// The loop's wall time is split into a warm-up window and kWindows windows
// of the same length. The warm-up window is not counted: the start of a
// loop runs measurably slower (cold per-thread caches, a host CPU ramping
// up). A statistic is computed per window and the median over windows is
// reported, so a burst that slows one window moves nothing.
class OpLog {
 public:
  static constexpr int kWindows = 15;
  static constexpr size_t kRefKeep = 15;

  OpLog(uint64_t startNs, double seconds, int classes);

  // A reference operation of class `cls` took `us` microseconds.
  void addRef(int cls, double us);
  bool hasRef(int cls) const { return refNow_[cls] > 0; }
  // An operation of class `cls` took `us` microseconds, ending at `nowNs`.
  void add(int cls, double us, uint64_t nowNs);

  // The q-quantile of operation time over reference time.
  double relQuantile(double q);
  // The mean of operation time over reference time: the inverse of the
  // closed loop's throughput, in references.
  double relMean();
  // The q-quantile of operation time (us).
  double quantile(double q);

 private:
  template <class Stat>
  static double overWindows(std::vector<Samples>& windows, Stat stat);

  uint64_t startNs_;
  uint64_t windowNs_;
  std::vector<Samples> rel_;  // per window: operation over reference time
  std::vector<Samples> abs_;  // per window: operation time (us)
  std::vector<std::vector<double>> refs_;  // per class: latest references
  std::vector<size_t> refNext_;            // per class: slot to overwrite
  std::vector<double> refNow_;             // per class: their median
};

// Reference operations: fixed work done by the benchmark's own code or the
// library's pre-compiled originals, which no rewrite changes. Each returns
// its time in microseconds.
class References {
 public:
  References();

  // Compute-bound, like a sweep or a cold rewrite: an original
  // brew_stencil_sweep, through the original 5-point cell function, over a
  // 64x64 matrix (3844 cells, L1-resident).
  double compute();
  // Latency-bound, like a cache hit: 16 lookups in a mutex-guarded hash
  // map of 64 entries, each hashing a 256-byte key (FNV-1a) and taking and
  // dropping a shared reference to the entry.
  double lookup();

 private:
  brew_stencil stencil_;
  brew::stencil::Matrix src_, dst_;
  std::vector<std::vector<uint8_t>> keys_;
  std::unordered_map<uint64_t, std::shared_ptr<uint64_t>> map_;
  std::mutex mutex_;
  size_t nextKey_ = 0;
  uint64_t sink_ = 0;
};

// Peak resident set size of this process, in MiB.
double peakRssMb();

// --- spans ---------------------------------------------------------------

// Span names, each attributed to one layer of the repository. Spans are
// recorded by the benchmark around its calls into the layer's public
// functions; nothing inside the library is instrumented.
enum class SpanId : uint8_t {
  Request,        // one closed-loop operation of the workload
  SpecRewrite,    // spec_manager: SpecManager::rewrite
  CacheKey,       // spec_manager: makeCacheKey
  CacheLookup,    // code_cache: CodeCache::lookup
  Decode,         // isa: decodeOne over a subject's bytes
  Trace,          // tracer: Tracer::trace (drives emu)
  Passes,         // passes: runPasses
  Emit,           // ir: ir::emit
  Compile,        // compileSpecialization (whole cold pipeline)
  DispatchCall,   // dispatch: a call through the variant dispatcher entry
  DirectCall,     // dispatch baseline: the same call on the variant entry
  PersistOpen,    // persist: a SpecManager opening its cache directory
  PersistProbe,   // persist: Store::probe
  PersistWrite,   // persist: Store::write
  KernelSpec,     // kernel: specialized code
  KernelOrig,     // kernel: the original pre-compiled function
  KernelManual,   // kernel: the hand-written kernel
  kCount
};

// In-memory span recorder. Off (untraced runs): every call is a branch.
// On: each span is timed and summed per name with its self time (its
// duration minus the part covered by child spans), and the first kKeepRaw
// raw spans are kept; both are written out at the end of the run.
class Spans {
 public:
  static constexpr size_t kKeepRaw = 20000;

  class Scope {
   public:
    Scope(Spans* spans, SpanId id) : spans_(spans), id_(id) {
      if (spans_ != nullptr) spans_->open(id_);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    SpanId id_;
  };

  explicit Spans(bool on) : on_(on) {}

  bool on() const { return on_; }
  // Starts a new request id: spans opened until the next call share it.
  void beginRequest() { ++request_; }
  Scope span(SpanId id) { return Scope(on_ ? this : nullptr, id); }

  // Writes the kept raw spans, then one summary per span name, as JSON
  // lines; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Agg {
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
  };
  struct Open {
    SpanId id;
    uint64_t start;
    uint64_t childNs;
    uint32_t index;  // raw index, or UINT32_MAX when not kept
  };
  struct Raw {
    SpanId id;
    uint32_t request;
    int32_t parent;  // raw index of the enclosing span, -1 at top level
    uint64_t start;
    uint64_t end;
  };

  void open(SpanId id);
  void close(SpanId id);

  bool on_;
  uint32_t request_ = 0;
  Agg aggs_[static_cast<size_t>(SpanId::kCount)];
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
};

// --- cold-request ledger -------------------------------------------------

// One rewrite request, kept so a traced run can replay it layer by layer.
struct ColdRequest {
  brew::Config config;
  brew::PassOptions passes;
  const void* fn = nullptr;
  std::vector<brew::ArgValue> args;
};

// Cold requests replayed layer by layer, each beside a live miss of the
// same request, and the per-layer split of the miss they add up to.
struct Ledger {
  // One replayed request: the time of each part, the layer counts, and the
  // latency of the live miss it is paired with.
  struct Record {
    bool ok = true;
    uint64_t keyNs = 0, lookupNs = 0, traceNs = 0, passesNs = 0, emitNs = 0;
    uint64_t tracedInstrs = 0, capturedInstrs = 0, blocks = 0;
    uint64_t instrsRemoved = 0, codeBytes = 0, poolBytes = 0;
    double liveUs = 0;
    double partsUs() const {
      return static_cast<double>(keyNs + lookupNs + traceNs + passesNs +
                                 emitNs) / 1e3;
    }
  };
  // A pair whose live miss or replayed parts took this many times their
  // median was stalled by something outside the request (a preemption, a
  // page-fault storm); its times are left out, its counts are kept.
  static constexpr double kStallFactor = 10.0;

  // The miss path's lookup is replayed against this empty cache of the
  // default shape.
  brew::CodeCache emptyCache;
  std::vector<Record> records;

  // Replays `request` through makeCacheKey, a miss lookup in an empty
  // cache, Tracer::trace, runPasses and ir::emit, each under its span, and
  // appends the record; the caller sets its liveUs.
  void replay(const ColdRequest& request, Spans& spans);

  // Adds the tracer.*, passes.*, ir.*, spec_manager.miss_us and compile.*
  // metrics: means over the unstalled pairs (counts: sums over all) with
  //   miss_us = key + lookup + trace + passes + emit + residual.
  // Returns the residual (us). The parts are timed apart from the whole, so
  // it can come out negative.
  double report(Outcome& out) const;
};

// --- helpers shared by workloads -----------------------------------------

// Number of instructions decodeOne decodes from `fn` up to its first ret
// (at most `maxInstrs`), timed under a Decode span per pass.
size_t decodeSubject(const void* fn, size_t maxInstrs, Spans& spans);

// Stencil config of the library's §V experiments: xs known, stencil data
// known (`bytes` of pointee), float result.
brew::Config stencilConfig(size_t bytes);

// Config of the PGAS element reader / writer specialized for a fixed view.
brew::Config pgasReadConfig();
brew::Config pgasWriteConfig();

}  // namespace perfbench
