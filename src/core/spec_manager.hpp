// SpecManager: the concurrent front door to specialization. Owns the
// process-wide (or per-instance) CodeCache and a small worker pool for
// asynchronous rewriting, so hot loops keep executing the original code
// until the specialized version is published (BAAR-style on-the-fly
// acceleration; see PAPERS.md).
//
//   SpecManager& mgr = SpecManager::process();
//   Rewriter r{config, mgr};                  // cached, deduplicated
//   auto batch = mgr.rewriteBatch(config, {}, {{fn, args}, {fn2, args2}});
//   for (int i; (i = batch->next()) >= 0;)    // completion order
//     if (batch->ok(i)) use(batch->handle(i));
//
// A caller that wants one stable entry running the original until the
// specialized code lands uses an asynchronous VariantDispatcher
// (core/dispatch.hpp), which submits its rewrites through rewriteBatch.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/code_cache.hpp"
#include "core/rewriter.hpp"

namespace brew {

namespace persist {
class Store;
}

// The exact cache key of a rewrite request: canonical bytes in two
// sections, the configuration (Config::writeKeySection, with the
// PassOptions switches) and the arguments (argument classes, known values,
// the bytes behind KnownPtr parameters, known-region bounds and contents).
// configFp and argsHash hash one section each and pick a shard, a hit slot
// and a persist file name. Unknown argument values never reach the
// generated code, so rewrites differing only there share one entry.
CacheKey makeCacheKey(const Config& config, const PassOptions& passes,
                      const void* fn, std::span<const ArgValue> args);

// makeCacheKey into a caller's buffer, reusing it: the returned view's
// bytes are the front of `buffer`, which grows to the longest key written
// into it and never shrinks. SpecManager::rewrite keeps one per thread, so
// a cached hit allocates nothing.
CacheKeyView writeCacheKey(const Config& config, const PassOptions& passes,
                           const void* fn, std::span<const ArgValue> args,
                           std::vector<uint8_t>& buffer);

// The key hash (configFp and argsHash hash one key section each). 64-byte
// blocks fold in four independent multiply lanes, merged in lane order;
// the rest in 16-byte steps, then the zero-padded tail; the length is
// mixed in last, so zero padding cannot alias a shorter key. The constants
// are fixed, so a key hashes the same in every process: the hashes name
// persistent-cache entry files.
uint64_t hashKeyBytes(std::span<const uint8_t> bytes);

// makeCacheKey(config, passes, ...).configFp alone: tags uncached code in
// perf maps and crash reports.
uint64_t configKeyHash(const Config& config, const PassOptions& passes);

// One rewrite of a batch: the function and the argument values it is
// specialized against.
struct RewriteItem {
  const void* fn = nullptr;
  std::vector<ArgValue> args;
};

// Fan-out of one configuration across many rewrite items on the async
// worker pool (SpecManager::rewriteBatch). Results are consumed in
// COMPLETION order: next() blocks until some unclaimed item finishes and
// returns its index into the submitted items — each index is returned
// exactly once across all callers, so several threads can drain one batch.
// Duplicate items deduplicate in the cache: they trace once and every item
// shares the same refcounted code.
class RewriteBatch {
 public:
  size_t size() const { return items_.size(); }

  // Blocks until an unclaimed item completes and returns its index; -1
  // once every item has been claimed (immediately for an empty batch).
  int next();
  // Blocks until every item is done (claimed or not).
  void wait() const;

  // Non-blocking: has this item completed (successfully or not)? Lets a
  // poller (core/dispatch.cpp) install finished variants without waiting.
  bool done(size_t index) const;

  // Per-item results; meaningful once the item is done (after its index
  // came back from next(), or after wait()).
  bool ok(size_t index) const;
  CodeHandle handle(size_t index) const;
  Error error(size_t index) const;

 private:
  friend class SpecManager;
  struct Item {
    RewriteItem request;  // set before the fan-out, never mutated
    bool done = false;
    bool ok = false;
    CodeHandle handle;
    Error error{};
  };

  RewriteBatch() = default;
  void complete(size_t index, Result<CodeHandle> result);

  // The shared request shape, read by the workers; set before the fan-out.
  Config config_;
  PassOptions passes_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<Item> items_;     // sized at construction; slots mutate once
  std::deque<int> completed_;   // completion order, not yet claimed
  size_t doneCount_ = 0;
  size_t claimed_ = 0;
};

// Tuning for the multi-version dispatcher (core/dispatch.hpp). Lives here
// so it rides inside SpecManager::Options — the one configuration object
// behind brew_options and the env fallbacks.
struct DispatchOptions {
  // Live specialized variants per function (N). A variant costs the
  // dispatcher one IcRecord; its code stays in the code cache either way,
  // so a table smaller than the key set only sends earned keys back to the
  // original.
  size_t maxVariants = 16;
  size_t sampleCalls = 64;    // resolver observations before promoting
  uint64_t promoteThreshold = 8;  // miss score a key needs to specialize
  // Calls per decay window, stub hits included; every window halves the hit
  // and miss scores. At 256 a key needs ~1.5% of calls to reach the default
  // promoteThreshold, and a hot challenger outscores a stale variant within
  // a window or two.
  uint64_t decayInterval = 256;
  bool asyncSpecialize = false;   // compile candidates on the worker pool
};

class SpecManager {
 public:
  struct Options {
    int workers = 2;                                  // async pool size
    size_t cacheBytes = CodeCache::kDefaultByteBudget;
    size_t cacheShards = CodeCache::kDefaultShards;  // 1 = single-lock control
    int profileHz = 0;  // 0 = BREW_PROFILE_HZ env / off
    // Persistent on-disk specialization cache directory (see
    // support/persist_cache.hpp). Empty = persistence disabled; the
    // BREW_CACHE_DIR env fallback applies only through fromEnv(), so
    // ad-hoc `SpecManager m;` instances in tests/benches stay cold.
    std::string cacheDir{};
    DispatchOptions dispatch{};

    // The ONE place environment fallbacks are parsed (each read once per
    // process): BREW_WORKERS, BREW_CACHE_BYTES, BREW_CACHE_DIR,
    // BREW_MAX_VARIANTS, BREW_PROFILE_HZ. Unset/invalid variables keep
    // the field defaults above. Prefer brew_options / configureProcess;
    // the env vars are documented compatibility fallbacks.
    static Options fromEnv();
  };

  SpecManager() : SpecManager(Options{}) {}
  explicit SpecManager(Options options);
  ~SpecManager();

  SpecManager(const SpecManager&) = delete;
  SpecManager& operator=(const SpecManager&) = delete;

  // The process-wide instance used by the C API, VariantDispatcher
  // clients and the PGAS runtime. First use constructs it from
  // Options::fromEnv(), as overridden by configureProcess().
  static SpecManager& process();

  // Replaces the options the process-wide instance will be built with.
  // Must run before the first process() call (i.e. before any rewrite
  // through the C API); returns false once the instance exists. Backs
  // brew_configure().
  static bool configureProcess(const Options& options);

  const Options& options() const { return options_; }

  CodeCache& cache() { return cache_; }

  // The persistent store, or nullptr when options().cacheDir is empty or
  // the directory could not be opened. Exposed for tests and diagnostics.
  persist::Store* persistStore() const { return persist_.get(); }

  // Synchronous cached rewrite: key, deduplicate, trace+emit on miss.
  Result<CodeHandle> rewrite(const Config& config, const PassOptions& passes,
                             const void* fn, std::span<const ArgValue> args);

  // The one asynchronous rewrite path: fans each item out to the worker
  // pool as a cached rewrite under `config`/`passes`. Returns immediately;
  // consume results in completion order with RewriteBatch::next(), or poll
  // them with done()/ok()/handle(). A null or failing function fails its
  // own item only — the rest of the batch proceeds. Every item records its
  // queue latency (async.queue_latency_ns); every item that produces code
  // records its install latency in the cache stats (asyncInstalls /
  // asyncLatencyNs*, async.install_latency_ns).
  std::shared_ptr<RewriteBatch> rewriteBatch(Config config,
                                             PassOptions passes,
                                             std::vector<RewriteItem> items);

 private:
  void enqueue(std::function<void()> task);
  void workerLoop();

  Options options_;
  CodeCache cache_;
  std::unique_ptr<persist::Store> persist_;  // null = persistence off

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // spawned lazily on first async use
};

}  // namespace brew
