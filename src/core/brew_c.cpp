// C API implementation. brew_rewrite2 returns refcounted brew_func
// handles backed by the process-wide specialization cache; runtime knobs
// enter through brew_options/brew_configure.
// brew_lastError is thread-local so concurrent rewriters sharing a conf
// never see each other's failures.
#include "core/brew.h"

#include <array>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <span>
#include <string>

#include "core/dispatch.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

struct brew_func {
  brew::CodeHandle handle;
  std::atomic<uint64_t> refs{1};
  brew_stats stats{};
};

struct brew_batch {
  std::shared_ptr<brew::RewriteBatch> impl;
  const brew_conf* conf = nullptr;  // error reporting target for next()
};

struct brew_options {
  brew::SpecManager::Options impl;
};

struct brew_dispatch {
  std::unique_ptr<brew::VariantDispatcher> impl;
};

namespace {
uint64_t nextConfId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

struct brew_conf {
  brew::Config config;
  int paramCount = 0;
  // Identity for the thread-local error slots: keyed by id (not pointer) so
  // a conf allocated at a recycled address never inherits stale messages.
  uint64_t id = nextConfId();
};

namespace {

// Per-thread error messages, keyed by conf id. The map is tiny (one entry
// per conf this thread rewrote with) and dies with the thread.
thread_local std::map<uint64_t, std::string> t_lastError;

void setLastError(const brew_conf* conf, std::string message) {
  t_lastError[conf->id] = std::move(message);
}

void clearLastError(const brew_conf* conf) { t_lastError.erase(conf->id); }

bool validIndex(int index) {
  return index >= 1 &&
         index <= static_cast<int>(brew::Config::kMaxParams);
}

// Storage for one argument per parameter a conf can declare.
using ArgArray = std::array<brew::ArgValue, brew::Config::kMaxParams>;

// Reads one variadic argument per declared parameter, typed by the conf,
// into `out`; returns the ones read.
std::span<const brew::ArgValue> readArgsV(const brew_conf* conf, va_list ap,
                                          ArgArray& out) {
  for (int i = 0; i < conf->paramCount; ++i) {
    const brew::ParamSpec& spec =
        conf->config.param(static_cast<size_t>(i));
    if (spec.isFloat)
      out[i] = brew::ArgValue::fromDouble(va_arg(ap, double));
    else
      out[i] = brew::ArgValue::fromInt(va_arg(ap, uint64_t));
  }
  return std::span(out).first(static_cast<size_t>(conf->paramCount));
}

std::vector<brew::ArgValue> readArgVectorV(const brew_conf* conf,
                                           va_list ap) {
  ArgArray storage;
  const std::span<const brew::ArgValue> args = readArgsV(conf, ap, storage);
  return {args.begin(), args.end()};
}

// Released brew_func shells, kept per thread for the next wrapHandle, so a
// cached brew_rewrite2 hit that its caller releases allocates nothing.
struct FuncShelf {
  static constexpr size_t kCapacity = 8;
  brew_func* shells[kCapacity] = {};
  size_t count = 0;
  ~FuncShelf() {
    while (count != 0) delete shells[--count];
  }
};
thread_local FuncShelf t_funcShelf;

// Wraps a cache handle in a brew_func with its stats filled in.
brew_func* wrapHandle(brew::CodeHandle handle) {
  FuncShelf& shelf = t_funcShelf;
  brew_func* out =
      shelf.count != 0 ? shelf.shells[--shelf.count] : new brew_func();
  out->refs.store(1, std::memory_order_relaxed);
  const brew::TraceStats& ts = handle->traceStats;
  out->stats = brew_stats{ts.tracedInstructions, ts.capturedInstructions,
                          ts.elidedInstructions, ts.blocks,
                          handle.codeSize()};
  out->handle = std::move(handle);
  return out;
}

// brew_rewrite2's worker: reads the variadic arguments and rewrites
// through the process-wide specialization cache.
brew_func* rewriteV(brew_conf* conf, const void* fn, va_list ap) {
  if (conf == nullptr || fn == nullptr) return nullptr;
  ArgArray storage;
  const std::span<const brew::ArgValue> args = readArgsV(conf, ap, storage);

  auto result = brew::SpecManager::process().rewrite(
      conf->config, brew::PassOptions{}, fn, args);
  if (!result.ok()) {
    setLastError(conf, result.error().message());
    return nullptr;
  }
  clearLastError(conf);
  return wrapHandle(std::move(*result));
}

}  // namespace

extern "C" {

brew_conf* brew_initConf(void) { return new brew_conf(); }

void brew_freeConf(brew_conf* conf) { delete conf; }

void brew_setnpar(brew_conf* conf, int count) {
  if (conf != nullptr && count >= 0 &&
      count <= static_cast<int>(brew::Config::kMaxParams))
    conf->paramCount = count;
}

void brew_setpar(brew_conf* conf, int index, int state) {
  if (conf == nullptr || !validIndex(index)) return;
  if (state == BREW_KNOWN)
    conf->config.setParamKnown(index - 1);
  else
    conf->config.setParamUnknown(index - 1);
  if (index > conf->paramCount) conf->paramCount = index;
}

void brew_setpar_ptr(brew_conf* conf, int index, size_t size) {
  if (conf == nullptr || !validIndex(index)) return;
  conf->config.setParamKnownPtr(index - 1, size);
  if (index > conf->paramCount) conf->paramCount = index;
}

void brew_setpar_double(brew_conf* conf, int index, int state) {
  if (conf == nullptr || !validIndex(index)) return;
  if (state == BREW_KNOWN)
    conf->config.setParamKnown(index - 1, /*isFloat=*/true);
  else
    conf->config.setParamFloat(index - 1);
  if (index > conf->paramCount) conf->paramCount = index;
}

void brew_setmem(brew_conf* conf, const void* start, const void* end,
                 int state) {
  if (conf == nullptr || state != BREW_KNOWN || start >= end) return;
  conf->config.addKnownRegion(
      start, static_cast<size_t>(static_cast<const char*>(end) -
                                 static_cast<const char*>(start)));
}

void brew_setret(brew_conf* conf, int kind) {
  if (conf == nullptr) return;
  switch (kind) {
    case BREW_RET_INT: conf->config.setReturnKind(brew::ReturnKind::Int); break;
    case BREW_RET_DOUBLE:
      conf->config.setReturnKind(brew::ReturnKind::Float);
      break;
    case BREW_RET_VOID:
      conf->config.setReturnKind(brew::ReturnKind::Void);
      break;
    default:
      conf->config.setReturnKind(brew::ReturnKind::Unknown);
      break;
  }
}

void brew_set_max_fork_depth(brew_conf* conf, int depth) {
  if (conf != nullptr) conf->config.limits().maxForkDepth =
      depth < 1 ? 1 : depth;
}

void brew_setfn(brew_conf* conf, const void* fn, int flags) {
  if (conf == nullptr || fn == nullptr) return;
  brew::FunctionOptions options;
  options.inlineCalls = (flags & BREW_FN_NOINLINE) == 0;
  options.forceUnknownResults = (flags & BREW_FN_NOUNROLL) != 0;
  options.pure = (flags & BREW_FN_PURE) != 0;
  conf->config.setFunctionOptions(fn, options);
}

void brew_set_entry_handler(brew_conf* conf, brew_handler handler) {
  if (conf != nullptr) conf->config.injection().onEntry = handler;
}
void brew_set_exit_handler(brew_conf* conf, brew_handler handler) {
  if (conf != nullptr) conf->config.injection().onExit = handler;
}
void brew_set_load_handler(brew_conf* conf, brew_handler handler) {
  if (conf != nullptr) conf->config.injection().onLoad = handler;
}
void brew_set_store_handler(brew_conf* conf, brew_handler handler) {
  if (conf != nullptr) conf->config.injection().onStore = handler;
}

/* ---- runtime configuration ------------------------------------------- */

brew_options* brew_options_init(void) {
  auto* options = new brew_options();
  options->impl = brew::SpecManager::Options::fromEnv();
  return options;
}

void brew_options_free(brew_options* options) { delete options; }

void brew_options_set_workers(brew_options* options, int workers) {
  if (options != nullptr && workers >= 1) options->impl.workers = workers;
}

void brew_options_set_cache_bytes(brew_options* options, size_t bytes) {
  if (options != nullptr && bytes > 0) options->impl.cacheBytes = bytes;
}

void brew_options_set_max_variants(brew_options* options, size_t variants) {
  if (options != nullptr && variants > 0)
    options->impl.dispatch.maxVariants = variants;
}

void brew_options_set_sample_calls(brew_options* options, size_t calls) {
  if (options != nullptr) options->impl.dispatch.sampleCalls = calls;
}

void brew_options_set_decay_interval(brew_options* options, uint64_t calls) {
  if (options != nullptr && calls > 0)
    options->impl.dispatch.decayInterval = calls;
}

void brew_options_set_async_specialize(brew_options* options, int enabled) {
  if (options != nullptr)
    options->impl.dispatch.asyncSpecialize = enabled != 0;
}

void brew_options_set_profile_hz(brew_options* options, int hz) {
  if (options != nullptr && hz >= 0) options->impl.profileHz = hz;
}

void brew_options_set_cache_dir(brew_options* options, const char* dir) {
  if (options != nullptr) options->impl.cacheDir = dir != nullptr ? dir : "";
}

int brew_configure(const brew_options* options) {
  if (options == nullptr) return -1;
  return brew::SpecManager::configureProcess(options->impl) ? 0 : -1;
}

/* ---- v2: handles ----------------------------------------------------- */

brew_func* brew_rewrite2(brew_conf* conf, const void* fn, ...) {
  va_list ap;
  va_start(ap, fn);
  brew_func* handle = rewriteV(conf, fn, ap);
  va_end(ap);
  return handle;
}

void* brew_func_entry(brew_func* fn) {
  return fn != nullptr ? fn->handle.entry() : nullptr;
}

brew_func* brew_retain(brew_func* fn) {
  if (fn != nullptr) fn->refs.fetch_add(1, std::memory_order_relaxed);
  return fn;
}

void brew_release_h(brew_func* fn) {
  if (fn == nullptr || fn->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  fn->handle.reset();  // the code goes now, not when the shell is reused
  FuncShelf& shelf = t_funcShelf;
  if (shelf.count < FuncShelf::kCapacity)
    shelf.shells[shelf.count++] = fn;
  else
    delete fn;
}

void brew_func_getstats(const brew_func* fn, brew_stats* out) {
  if (fn != nullptr && out != nullptr) *out = fn->stats;
}

/* ---- batch rewriting -------------------------------------------------- */

brew_batch* brew_rewrite_batch(brew_conf* conf, const void* const* fns,
                               size_t count, ...) {
  if (conf == nullptr || (fns == nullptr && count > 0)) return nullptr;
  va_list ap;
  va_start(ap, count);
  std::vector<brew::ArgValue> args = readArgVectorV(conf, ap);
  va_end(ap);

  std::vector<brew::RewriteItem> items(count);
  for (size_t i = 0; i < count; ++i) items[i] = {fns[i], args};
  auto* batch = new brew_batch();
  batch->conf = conf;
  batch->impl = brew::SpecManager::process().rewriteBatch(
      conf->config, brew::PassOptions{}, std::move(items));
  return batch;
}

size_t brew_batch_size(const brew_batch* batch) {
  return batch != nullptr ? batch->impl->size() : 0;
}

int brew_batch_next(brew_batch* batch) {
  if (batch == nullptr) return -1;
  const int index = batch->impl->next();
  if (index < 0) return -1;
  /* Errors surface on the claiming thread, mirroring brew_rewrite2's
   * thread-local contract. */
  if (batch->impl->ok(static_cast<size_t>(index)))
    clearLastError(batch->conf);
  else
    setLastError(batch->conf,
                 batch->impl->error(static_cast<size_t>(index)).message());
  return index;
}

brew_func* brew_batch_take(brew_batch* batch, size_t index) {
  if (batch == nullptr || !batch->impl->ok(index)) return nullptr;
  brew::CodeHandle handle = batch->impl->handle(index);
  if (!handle) return nullptr;
  return wrapHandle(std::move(handle));
}

void brew_batch_free(brew_batch* batch) {
  if (batch == nullptr) return;
  /* Items still in flight reference only the shared RewriteBatch state
   * (kept alive by the workers' shared_ptr), but waiting keeps "freed
   * batch => no more work running against conf" simple for callers. */
  batch->impl->wait();
  delete batch;
}

void brew_getcachestats(brew_cache_stats* out) {
  if (out == nullptr) return;
  const brew::CacheStats s = brew::SpecManager::process().cache().stats();
  *out = brew_cache_stats{
      s.hits,
      s.misses,
      s.evictions,
      s.insertions,
      s.inFlightWaits,
      s.invalidations,
      s.entries,
      s.codeBytes,
      s.capacityBytes,
      s.asyncInstalls,
      s.asyncLatencyNsTotal,
      s.asyncLatencyNsMax,
      s.fastpathHits,
      s.shardContention,
      s.shards,
      s.blocksLive,
  };
}

void brew_cache_reset(void) {
  brew::CodeCache& cache = brew::SpecManager::process().cache();
  cache.clear();
  cache.resetStats();
}

void brew_cache_set_budget(size_t bytes) {
  brew::SpecManager::process().cache().setByteBudget(bytes);
}

void brew_getpersiststats(brew_persist_stats* out) {
  if (out == nullptr) return;
  brew::SpecManager& manager = brew::SpecManager::process();
  const brew::CacheStats s = manager.cache().stats();
  *out = brew_persist_stats{
      s.persistHits,
      s.persistMisses,
      s.persistWrites,
      s.persistRejects,
      brew::telemetry::counter(
          brew::telemetry::CounterId::PersistSharedMaps)
          .value(),
      uint64_t{0},
  };
}

/* ---- multi-version dispatch ------------------------------------------ */

brew_dispatch* brew_dispatch_create(brew_conf* conf, const void* fn,
                                    int param_index, ...) {
  if (conf == nullptr || fn == nullptr || param_index < 1 ||
      param_index > conf->paramCount)
    return nullptr;
  const size_t paramIndex = static_cast<size_t>(param_index - 1);
  if (conf->config.param(paramIndex).isFloat) {
    setLastError(conf, "dispatched parameter must be integer-class");
    return nullptr;
  }
  va_list ap;
  va_start(ap, param_index);
  std::vector<brew::ArgValue> args = readArgVectorV(conf, ap);
  va_end(ap);

  auto* dispatch = new brew_dispatch();
  dispatch->impl = std::make_unique<brew::VariantDispatcher>(
      brew::SpecManager::process(), fn, paramIndex, std::move(args),
      conf->config);
  if (!dispatch->impl->valid()) {
    setLastError(conf, "dispatch stub emission failed");
    delete dispatch;
    return nullptr;
  }
  clearLastError(conf);
  return dispatch;
}

void* brew_dispatch_entry(brew_dispatch* dispatch) {
  return dispatch != nullptr ? dispatch->impl->entry() : nullptr;
}

void brew_dispatch_bump_epoch(brew_dispatch* dispatch) {
  if (dispatch != nullptr) dispatch->impl->bumpEpoch();
}

size_t brew_dispatch_variant_count(const brew_dispatch* dispatch) {
  return dispatch != nullptr ? dispatch->impl->variantCount() : 0;
}

void brew_dispatch_free(brew_dispatch* dispatch) { delete dispatch; }

/* ---- variant introspection ------------------------------------------- */

void brew_getvariantstats(brew_variant_stats* out) {
  if (out == nullptr) return;
  size_t functions = 0;
  const brew::DispatchStats s =
      brew::VariantDispatcher::aggregate(&functions);
  *out = brew_variant_stats{
      functions,    s.variantsLive, s.variantHits, s.tableHits,
      s.misses,     s.promotions,   s.demotions,   s.decayRounds,
      s.epochBumps, s.pendingAsync,
  };
}

size_t brew_func_variants(const void* fn, brew_func_variant* out,
                          size_t cap) {
  size_t live = 0;
  brew::VariantDispatcher::withDispatcher(
      fn, [&](brew::VariantDispatcher& dispatcher) {
        const std::vector<brew::VariantInfo> rows = dispatcher.variants();
        live = rows.size();
        if (out == nullptr) return;
        for (size_t i = 0; i < rows.size() && i < cap; ++i) {
          out[i] = brew_func_variant{
              rows[i].key,       rows[i].hits,
              rows[i].entry,     rows[i].codeBytes,
              rows[i].epoch,     rows[i].inlineCached ? 1 : 0,
          };
        }
      });
  return live;
}

/* ---- telemetry ------------------------------------------------------- */

void brew_telemetry_snapshot(brew_telemetry* out) {
  if (out == nullptr) return;
  *out = brew_telemetry{};
  const brew::telemetry::Snapshot snap = brew::telemetry::snapshot();
  for (const auto& c : snap.counters) {
    if (out->counter_count >= BREW_TELEMETRY_MAX_INSTRUMENTS) break;
    out->counters[out->counter_count++] = brew_telemetry_counter{c.name, c.value};
  }
  for (const auto& g : snap.gauges) {
    if (out->gauge_count >= BREW_TELEMETRY_MAX_INSTRUMENTS) break;
    out->gauges[out->gauge_count++] = brew_telemetry_gauge{g.name, g.value};
  }
  for (const auto& h : snap.histograms) {
    if (out->histogram_count >= BREW_TELEMETRY_MAX_INSTRUMENTS) break;
    using brew::telemetry::Histogram;
    out->histograms[out->histogram_count++] = brew_telemetry_histogram{
        h.name, h.count, h.sum, h.max,
        Histogram::quantileFromBuckets(h.buckets, 0.50),
        Histogram::quantileFromBuckets(h.buckets, 0.99),
        Histogram::quantileFromBuckets(h.buckets, 0.999)};
  }
}

int brew_telemetry_write_json(const char* path) {
  return path != nullptr && brew::telemetry::writeJson(path) ? 0 : -1;
}

void brew_telemetry_set_tracing(int enabled) {
  brew::telemetry::setTracing(enabled != 0);
}

int brew_telemetry_write_trace(const char* path) {
  return path != nullptr && brew::telemetry::writeTrace(path) ? 0 : -1;
}

void brew_telemetry_reset(void) { brew::telemetry::resetAll(); }

/* ---- sampling profiler ----------------------------------------------- */

int brew_profile_start(int hz) {
  return brew::prof::startProfiler(hz) ? 0 : -1;
}

void brew_profile_stop(void) { brew::prof::stopProfiler(); }

void brew_profile_snapshot(brew_profile* out) {
  if (out == nullptr) return;
  *out = brew_profile{};
  const brew::prof::ProfileSnapshot snap = brew::prof::profileSnapshot();
  out->hz = snap.hz;
  out->total_samples = snap.totalSamples;
  out->brew_samples = snap.brewSamples;
  out->dropped_samples = snap.droppedSamples;
  for (const auto& e : snap.entries) {
    if (out->entry_count >= BREW_PROFILE_MAX_ENTRIES) break;
    brew_profile_entry& row = out->entries[out->entry_count++];
    std::snprintf(row.name, sizeof row.name, "%s", e.name.c_str());
    row.samples = e.samples;
  }
}

int brew_profile_write_json(const char* path) {
  return path != nullptr && brew::prof::writeProfileJson(path) ? 0 : -1;
}

const char* brew_lastError(const brew_conf* conf) {
  if (conf == nullptr) return "null conf";
  auto it = t_lastError.find(conf->id);
  return it != t_lastError.end() ? it->second.c_str() : "";
}

}  // extern "C"
