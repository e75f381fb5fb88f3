/* BREW — Binary REWriting at runtime (C API).
 *
 * Mirrors the paper's proposed interface (Figures 2, 3 and 5), extended
 * with the v2 handle surface:
 *
 *   brew_conf* conf = brew_initConf();
 *   brew_setnpar(conf, 3);
 *   brew_setpar(conf, 2, BREW_KNOWN);
 *   brew_setpar_ptr(conf, 3, sizeof(struct S));      // BREW_PTR_TOKNOWN
 *   brew_func* h = brew_rewrite2(conf, (void*)apply, 0, xs, &s5);
 *   apply_t app2 = (apply_t)brew_func_entry(h);
 *   ...
 *   brew_release_h(h);
 *   brew_freeConf(conf);
 *
 * Rewrites are served from a process-wide concurrent specialization cache:
 * two identical brew_rewrite2 calls trace once and share refcounted code
 * (see brew_getcachestats). Runtime knobs (worker count, cache budget,
 * shard count, variant limits) enter through ONE object — brew_options +
 * brew_configure — with environment variables as documented fallbacks.
 * Every rewrite returns a refcounted brew_func handle (brew_func_entry
 * yields the callable); the paper's figures' raw void* spelling
 * (brew_rewrite / brew_release) is not provided.
 *
 * Parameter indices are 1-based like in the paper. Rewriting failure is not
 * catastrophic: brew_rewrite2 returns NULL and the caller keeps using the
 * original function (brew_lastError, now thread-local, explains why).
 *
 * STRUCT LAYOUT / VERSIONING RULE: every struct in this header that the
 * library fills in for the caller (brew_stats, brew_cache_stats,
 * brew_variant_stats, brew_func_variant, brew_telemetry*) is append-only.
 * Fields are fixed-width (uint64_t for every counter/byte/size value),
 * never renamed, never reordered, never removed; new fields go at the end.
 * Compiling against a newer header and linking an older library is the
 * only unsupported direction.
 */
#ifndef BREW_H_
#define BREW_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct brew_conf brew_conf;

/* A refcounted handle to one rewritten function (v2 API). The generated
 * code stays mapped while any handle (or any cache entry) references it. */
typedef struct brew_func brew_func;

enum {
  BREW_UNKNOWN = 0,
  BREW_KNOWN = 1,
};

/* Flags for brew_setfn. */
enum {
  BREW_FN_INLINE = 0,        /* default: trace into calls to this function */
  BREW_FN_NOINLINE = 1 << 0, /* keep calls to this function */
  BREW_FN_NOUNROLL = 1 << 1, /* treat all produced values as unknown (§V-C) */
  BREW_FN_PURE = 1 << 2,     /* callee does not write caller-visible memory */
};

brew_conf* brew_initConf(void);
void brew_freeConf(brew_conf* conf);

/* Total number of parameters of functions rewritten with this conf.
 * brew_rewrite2 reads exactly this many variadic arguments. */
void brew_setnpar(brew_conf* conf, int count);

/* Declare parameter `index` (1-based) known/unknown (BREW_KNOWN...). */
void brew_setpar(brew_conf* conf, int index, int state);

/* Declare parameter `index` a pointer to `size` bytes of constant data
 * (the paper's BREW_PTR_TOKNOWN): the pointer value becomes known and loads
 * through it fold to constants. */
void brew_setpar_ptr(brew_conf* conf, int index, size_t size);

/* Declare parameter `index` an SSE-class (double) argument. Needed so the
 * variadic arguments of brew_rewrite2 are read with the right type and
 * assigned to the right ABI register. */
void brew_setpar_double(brew_conf* conf, int index, int state);

/* Declare [start, end) constant data (paper's brew_setmem). */
void brew_setmem(brew_conf* conf, const void* start, const void* end,
                 int state);

/* Return-type class of the rewritten function: lets the rewriter skip
 * materializing unused ABI return registers. */
enum {
  BREW_RET_UNKNOWN = 0,
  BREW_RET_INT = 1,
  BREW_RET_DOUBLE = 2,
  BREW_RET_VOID = 3,
};
void brew_setret(brew_conf* conf, int kind);

/* Per-function rewriting options, keyed by function address (§III-C). */
void brew_setfn(brew_conf* conf, const void* fn, int flags);

/* Unknown-branch nesting depth beyond which the tracer stops forking and
 * emits side-exit stubs back into the original code (docs/BLOCKS.md). A
 * large depth never side-exits; depth < 1 is clamped to 1. Part of the
 * cache key, so a different depth never aliases a cached rewrite. */
void brew_set_max_fork_depth(brew_conf* conf, int depth);

/* Instrumentation injection (§III-D). Handlers receive the guest address. */
typedef void (*brew_handler)(uint64_t guest_address);
void brew_set_entry_handler(brew_conf* conf, brew_handler handler);
void brew_set_exit_handler(brew_conf* conf, brew_handler handler);
void brew_set_load_handler(brew_conf* conf, brew_handler handler);
void brew_set_store_handler(brew_conf* conf, brew_handler handler);

/* ---- runtime configuration (brew_options) ---------------------------- */

/* The ONE way runtime knobs reach the rewrite runtime. Build an options
 * object, set what you need, and pass it to brew_configure BEFORE the
 * first rewrite; the process-wide specialization manager is constructed
 * from it on first use. brew_options_init seeds every field from the
 * documented environment fallbacks, so configuring nothing is exactly the
 * env-driven behavior:
 *
 *   BREW_WORKERS        async rewrite worker threads        (default 2)
 *   BREW_CACHE_BYTES    specialization-cache LRU budget     (default 64 MiB)
 *   BREW_MAX_VARIANTS   live dispatch variants per function (default 16)
 *   BREW_PROFILE_HZ     sampling-profiler frequency, 0 = off (default 0)
 *   BREW_CACHE_DIR      persistent on-disk specialization-cache directory
 *                       (default unset = persistence off; see docs/CACHE.md)
 *
 * The environment is parsed in exactly one place
 * (SpecManager::Options::fromEnv); no other component reads these
 * variables. */
typedef struct brew_options brew_options;

brew_options* brew_options_init(void);
void brew_options_free(brew_options* options);

/* Async rewrite worker threads (min 1). */
void brew_options_set_workers(brew_options* options, int workers);
/* Specialization-cache LRU byte budget. */
void brew_options_set_cache_bytes(brew_options* options, size_t bytes);
/* Live specialized variants per dispatched function (N; min 1; default
 * 16). Each dispatch stub has four inline-cache ways; variants beyond them
 * are served by the stub's miss path. */
void brew_options_set_max_variants(brew_options* options, size_t variants);
/* Miss-path observations before a dispatcher starts promoting. */
void brew_options_set_sample_calls(brew_options* options, size_t calls);
/* Calls between decay rounds (score halvings), stub hits included
 * (default 256). */
void brew_options_set_decay_interval(brew_options* options, uint64_t calls);
/* Compile promotion candidates on the worker pool instead of inline. */
void brew_options_set_async_specialize(brew_options* options, int enabled);
/* Sampling-profiler frequency in Hz (clamped to [1, 10000]; 0 disables).
 * The profiler starts with the runtime when > 0. */
void brew_options_set_profile_hz(brew_options* options, int hz);
/* Persistent on-disk specialization cache directory (copied; NULL or ""
 * disables persistence). Entries are keyed by the executable's build id
 * plus the full specialization identity, written crash-safely, and — when
 * position independent — loaded by mapping the entry file read-only, so
 * every process using the directory shares those code pages through the
 * page cache. A restarted process warm-starts with zero trace phases. See
 * docs/CACHE.md "Persistence". */
void brew_options_set_cache_dir(brew_options* options, const char* dir);

/* Installs `options` as the configuration of the process-wide runtime.
 * Returns 0 on success, -1 when options is NULL or the runtime was already
 * constructed (any earlier rewrite/dispatch call). Later brew_configure
 * calls before construction overwrite earlier ones wholesale. */
int brew_configure(const brew_options* options);

/* ---- v2: handle-based rewriting -------------------------------------- */

/* Rewrites `fn`, emulating a call with the given arguments (one variadic
 * argument per declared parameter; doubles for parameters declared with
 * brew_setpar_double, pointer/integer values otherwise). Identical
 * requests (same function, same conf shape, same known values) are served
 * from the specialization cache without re-tracing. Returns a new handle
 * (release with brew_release_h) or NULL on failure. */
brew_func* brew_rewrite2(brew_conf* conf, const void* fn, ...);

/* Entry point of the rewritten code; same signature as the original
 * function. Valid while the handle is alive. */
void* brew_func_entry(brew_func* fn);

/* Adds a reference; returns `fn`. Each brew_retain needs one matching
 * brew_release_h. */
brew_func* brew_retain(brew_func* fn);

/* Drops one reference; the code is unmapped when the last handle AND any
 * cache entry are gone. NULL is a no-op. */
void brew_release_h(brew_func* fn);

/* ---- batch rewriting -------------------------------------------------- */

/* A fan-out of rewrite requests in flight on the runtime's worker pool. */
typedef struct brew_batch brew_batch;

/* Rewrites every function in fns[0..count), all sharing `conf` and the
 * same known-argument values (variadic arguments exactly as in
 * brew_rewrite2). Requests fan out to the asynchronous rewrite workers;
 * this call returns immediately and results are claimed in COMPLETION
 * order with brew_batch_next. Duplicate functions in fns[] are
 * deduplicated by the specialization cache: they trace once and share one
 * refcounted code object. A null or failing function fails only its own
 * slot — the rest of the batch proceeds. `conf` must stay alive until the
 * batch is freed. Returns NULL on null conf, or null fns with count > 0. */
brew_batch* brew_rewrite_batch(brew_conf* conf, const void* const* fns,
                               size_t count, ...);

/* Number of requests in the batch. */
size_t brew_batch_size(const brew_batch* batch);

/* Blocks until some unclaimed request completes, then returns its index
 * into fns[]. Each index is returned exactly once across all calling
 * threads; returns -1 once every index has been claimed (immediately for
 * an empty batch). When the claimed request failed,
 * brew_batch_take(index) returns NULL and brew_lastError(conf) on the
 * *calling* thread explains why (thread-local, like brew_rewrite2). */
int brew_batch_next(brew_batch* batch);

/* New reference to the handle produced for fns[index] (release with
 * brew_release_h), or NULL while that request is pending or if it
 * failed. Callable any number of times per index. */
brew_func* brew_batch_take(brew_batch* batch, size_t index);

/* Waits for all requests, then frees the batch bookkeeping. Handles taken
 * with brew_batch_take stay valid. NULL is a no-op. */
void brew_batch_free(brew_batch* batch);

/* Statistics of the rewrite that produced this handle. */
typedef struct brew_stats {
  size_t traced_instructions;
  size_t captured_instructions;
  size_t elided_instructions;
  size_t blocks;
  size_t code_bytes;
} brew_stats;
void brew_func_getstats(const brew_func* fn, brew_stats* out);

/* ---- process-wide specialization cache ------------------------------- */

/* Normalized per the header's layout/versioning rule: every field is a
 * uint64_t (fields accumulated across earlier releases mixed size_t and
 * uint64_t), snake_case, append-only. */
typedef struct brew_cache_stats {
  uint64_t hits;              /* served without tracing */
  uint64_t misses;            /* one per actual trace+emit */
  uint64_t evictions;         /* dropped for the byte budget */
  uint64_t insertions;
  uint64_t in_flight_waits;   /* hits that blocked on a concurrent build */
  uint64_t invalidations;     /* dropped because the target was freed */
  uint64_t entries;           /* current */
  uint64_t code_bytes;        /* current mapped bytes held by the cache */
  uint64_t capacity_bytes;    /* configured budget */
  uint64_t async_installs;    /* asynchronous publications */
  uint64_t async_latency_ns_total;
  uint64_t async_latency_ns_max;
  uint64_t fastpath_hits;     /* subset of hits served by the lock-free
                                 seqlock hit table (no mutex taken) */
  uint64_t shard_contention;  /* shard mutex acquisitions that had to wait */
  uint64_t shards;            /* configured shard count */
  uint64_t blocks_live;       /* specialized basic blocks currently held
                                 (per-block cache accounting, docs/BLOCKS.md) */
} brew_cache_stats;
void brew_getcachestats(brew_cache_stats* out);

/* Drops all cache entries (outstanding handles stay executable) and zeroes
 * the counters. Mostly for tests and phase boundaries. */
void brew_cache_reset(void);

/* LRU byte budget of the cache (default 64 MiB). Prefer
 * brew_options_set_cache_bytes before startup; this adjusts it live. */
void brew_cache_set_budget(size_t bytes);

/* ---- persistent on-disk cache ---------------------------------------- */

/* Traffic between the process-wide cache and its on-disk store (all zero
 * when no cache directory is configured). uint64_t fields, append-only per
 * the header's versioning rule. The cache.persist_* telemetry counters are
 * the process-global view of the same events. */
typedef struct brew_persist_stats {
  uint64_t hits;         /* cold builds replaced by an on-disk entry */
  uint64_t misses;       /* probes that fell through to a cold rewrite */
  uint64_t writes;       /* entries published to disk */
  uint64_t rejects;      /* on-disk entries that failed validation
                            (corruption, stale format, foreign build) */
  uint64_t shared_maps;  /* hits mapped from the entry file itself, their
                            pages shared through the page cache */
  uint64_t serving_pages; /* always 0: entries are shared by mapping the
                             files, with no page-serving process; kept so
                             the struct layout stays append-only */
} brew_persist_stats;
void brew_getpersiststats(brew_persist_stats* out);

/* ---- multi-version dispatch ------------------------------------------ */

/* A dispatcher keeps up to N (brew_options_set_max_variants) specialized
 * variants of one function, keyed by the runtime value of one integer
 * parameter, and dispatches through an inline-cache stub whose hot path is
 * one compare + one jump. Unknown values fall back to the original
 * function while their miss counts accumulate; hot values are specialized
 * and promoted, cold variants decay and retire. See docs/DISPATCH.md. */
typedef struct brew_dispatch brew_dispatch;

/* Creates a dispatcher over `fn`. `param_index` is 1-based like
 * brew_setpar and must name an integer-class parameter; the variadic
 * arguments supply one prototype value per declared parameter (used when
 * tracing — the dispatched parameter's value is replaced per variant).
 * The conf may be freed afterwards. Returns NULL on invalid arguments. */
brew_dispatch* brew_dispatch_create(brew_conf* conf, const void* fn,
                                    int param_index, ...);

/* The callable entry (same signature as `fn`). Valid until
 * brew_dispatch_free. */
void* brew_dispatch_entry(brew_dispatch* dispatch);

/* Declares a predicate-epoch change (e.g. a PGAS redistribution): every
 * live variant is retired and the previously hot keys respecialize as one
 * batch on the worker pool; calls fall back to the original meanwhile. */
void brew_dispatch_bump_epoch(brew_dispatch* dispatch);

/* Live variant count of this dispatcher. */
size_t brew_dispatch_variant_count(const brew_dispatch* dispatch);

/* Frees the dispatcher, its stub and its variants. Callers must no longer
 * use the entry pointer. NULL is a no-op. */
void brew_dispatch_free(brew_dispatch* dispatch);

/* ---- variant introspection ------------------------------------------- */

/* Aggregate over every live dispatcher in the process (uint64_t fields,
 * append-only; see the header's versioning rule). */
typedef struct brew_variant_stats {
  uint64_t functions;      /* live dispatchers */
  uint64_t variants_live;
  uint64_t variant_hits;   /* decayed, approximate per-variant hit total */
  uint64_t table_hits;     /* miss-path calls served from the variant table */
  uint64_t misses;         /* miss-path calls with no live variant */
  uint64_t promotions;
  uint64_t demotions;
  uint64_t decay_rounds;
  uint64_t epoch_bumps;
  uint64_t pending_async;  /* candidate rewrites in flight */
} brew_variant_stats;
void brew_getvariantstats(brew_variant_stats* out);

/* One live variant of one dispatched function. */
typedef struct brew_func_variant {
  uint64_t key;          /* parameter value the variant is specialized for */
  uint64_t hits;         /* decayed, approximate */
  const void* entry;     /* variant code (do not outlive the dispatcher) */
  uint64_t code_bytes;
  uint64_t epoch;        /* predicate epoch the variant was built in */
  int inline_cached;     /* currently occupies an inline-cache way */
} brew_func_variant;

/* Snapshots the live variants of the dispatcher over `fn` into out[0..cap)
 * and returns the number of live variants (may exceed cap; only cap rows
 * are written). Returns 0 when fn has no dispatcher. */
size_t brew_func_variants(const void* fn, brew_func_variant* out, size_t cap);

/* ---- process-wide telemetry ------------------------------------------ */

/* The runtime keeps a registry of counters, gauges and two-level
 * HDR-style histograms (log2 major / linear minor buckets, so p50/p99/p999
 * resolve to ~6%) covering the whole rewrite pipeline (trace, passes,
 * emit, install, cache, guards, executable memory). Names are stable
 * dotted identifiers ("cache.hits", "phase.emit_ns", ...). The cache
 * counters here and brew_getcachestats() are two views over the same
 * events.
 *
 * Related environment switches (see docs/OBSERVABILITY.md):
 *   BREW_STATS=1            human-readable summary on stderr at exit
 *   BREW_TRACE_FILE=<path>  Chrome trace-event JSON timeline at exit
 *   BREW_PERF_MAP=1         /tmp/perf-<pid>.map symbols for perf
 *   BREW_JITDUMP=1|<dir>    jitdump file for `perf inject --jit`
 *   BREW_PROFILE_HZ=<hz>    in-process sampling profiler
 *   BREW_PROFILE_FILE=<p>   profile JSON at exit
 *   BREW_CRASH_FILE=<p>     crash-attribution report copy (also on stderr)
 *   BREW_CRASH_HANDLER=0    disable the crash-report signal handlers
 */

enum { BREW_TELEMETRY_MAX_INSTRUMENTS = 64 };

typedef struct brew_telemetry_counter {
  const char* name; /* static storage; valid for the process lifetime */
  uint64_t value;
} brew_telemetry_counter;

typedef struct brew_telemetry_gauge {
  const char* name;
  int64_t value;
} brew_telemetry_gauge;

typedef struct brew_telemetry_histogram {
  const char* name;
  uint64_t count;
  uint64_t sum; /* average = sum / count */
  uint64_t max;
  /* Quantiles resolved from the two-level HDR buckets (~6% relative
   * error); 0 when the histogram is empty. */
  uint64_t p50;
  uint64_t p99;
  uint64_t p999;
} brew_telemetry_histogram;

typedef struct brew_telemetry {
  size_t counter_count;
  size_t gauge_count;
  size_t histogram_count;
  brew_telemetry_counter counters[BREW_TELEMETRY_MAX_INSTRUMENTS];
  brew_telemetry_gauge gauges[BREW_TELEMETRY_MAX_INSTRUMENTS];
  brew_telemetry_histogram histograms[BREW_TELEMETRY_MAX_INSTRUMENTS];
} brew_telemetry;

/* Point-in-time copy of every instrument (lock-free reads). */
void brew_telemetry_snapshot(brew_telemetry* out);

/* Writes the full registry (including histogram buckets) as JSON.
 * Returns 0 on success, -1 on I/O failure. */
int brew_telemetry_write_json(const char* path);

/* Enables/disables phase timeline span recording (also switched on by
 * BREW_TRACE_FILE). Spans land in per-thread ring buffers. */
void brew_telemetry_set_tracing(int enabled);

/* Writes recorded spans as Chrome trace-event JSON (load in Perfetto or
 * chrome://tracing). Returns 0 on success, -1 on I/O failure. */
int brew_telemetry_write_trace(const char* path);

/* Zeroes every counter/gauge/histogram (tests, phase boundaries). Does not
 * touch brew_getcachestats(): per-cache stats are reset by brew_cache_reset. */
void brew_telemetry_reset(void);

/* ---- in-process sampling profiler ------------------------------------ */

/* SIGPROF-driven CPU sampling (docs/OBSERVABILITY.md). Samples landing
 * inside rewritten code are attributed to the owning specialization by
 * name; everything else counts toward total_samples only. Start it with
 * brew_options_set_profile_hz / BREW_PROFILE_HZ, or explicitly here. */

enum { BREW_PROFILE_MAX_ENTRIES = 64 };

typedef struct brew_profile_entry {
  char name[96];    /* specialization symbol, e.g. brew_fn_1234_abcd */
  uint64_t samples; /* CPU samples attributed to this region */
} brew_profile_entry;

typedef struct brew_profile {
  int hz;                   /* 0 when the profiler never ran */
  uint64_t total_samples;   /* all SIGPROF ticks observed */
  uint64_t brew_samples;    /* ticks inside rewritten code */
  uint64_t dropped_samples; /* ring-full ticks (attribution lost) */
  size_t entry_count;
  brew_profile_entry entries[BREW_PROFILE_MAX_ENTRIES];
} brew_profile;

/* Starts sampling at `hz` (clamped to [1, 10000]). Returns 0 on success,
 * -1 if already running or the timer could not be armed. */
int brew_profile_start(int hz);
/* Stops the timer and drains outstanding samples. Safe when not running. */
void brew_profile_stop(void);
/* Drains and snapshots the profile, hottest specialization first. */
void brew_profile_snapshot(brew_profile* out);
/* Writes the full profile (all entries) as JSON; 0 on success, -1 on I/O
 * failure. Also written at exit to BREW_PROFILE_FILE when set. */
int brew_profile_write_json(const char* path);

/* Message for the most recent brew_rewrite2 failure on this conf *on the
 * calling thread* (thread-local, so concurrent rewriters do not clobber
 * each other); "" after a successful rewrite or when this thread never
 * failed. */
const char* brew_lastError(const brew_conf* conf);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* BREW_H_ */
