// C API tests — the paper's interface (Figures 2, 3, 5) end to end.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "core/brew.h"
#include "stencil/stencil.hpp"
#include "support/telemetry.hpp"

namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

__attribute__((noinline)) int mulsub(int a, int b) { return a * 3 - b; }
__attribute__((noinline)) int xorshift(int a, int b) { return (a ^ b) + a; }

__attribute__((noinline)) double scale(double x, double factor) {
  return x * factor;
}
typedef double (*scale_t)(double, double);

// One release per handle; helper for the Figure tests, which only care
// about the entry pointer.
void* rewriteEntry(brew_conf* conf, const void* fn, brew_func** out,
                   uint64_t a, uint64_t b) {
  *out = brew_rewrite2(conf, fn, a, b);
  return *out != nullptr ? brew_func_entry(*out) : nullptr;
}

TEST(CApi, Figure2BasicUsage) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setret(conf, BREW_RET_INT);
  brew_func* h = nullptr;
  void* newfunc = rewriteEntry(conf, (void*)addmul, &h, 1, 2);
  ASSERT_NE(newfunc, nullptr) << brew_lastError(conf);
  EXPECT_EQ(((addmul_t)newfunc)(1, 2), addmul(1, 2));
  EXPECT_EQ(((addmul_t)newfunc)(-3, 10), addmul(-3, 10));
  brew_release_h(h);
  brew_freeConf(conf);
}

TEST(CApi, Figure3KnownParameterIgnoredAtCallTime) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  brew_func* h = nullptr;
  addmul_t newfunc = (addmul_t)rewriteEntry(conf, (void*)addmul, &h, 42, 2);
  ASSERT_NE(newfunc, nullptr) << brew_lastError(conf);
  // "ignores value 1"
  EXPECT_EQ(newfunc(1, 2), 42 * 7 + 2);
  EXPECT_EQ(newfunc(999, 5), 42 * 7 + 5);
  brew_release_h(h);
  brew_freeConf(conf);
}

TEST(CApi, DoubleParameters) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar_double(conf, 1, BREW_UNKNOWN);
  brew_setpar_double(conf, 2, BREW_KNOWN);
  brew_setret(conf, BREW_RET_DOUBLE);
  brew_func* h = brew_rewrite2(conf, (void*)scale, 0.0, 2.5);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  scale_t scaled = (scale_t)brew_func_entry(h);
  EXPECT_DOUBLE_EQ(scaled(4.0, 999.0), 10.0);  // factor fixed at 2.5
  brew_release_h(h);
  brew_freeConf(conf);
}

TEST(CApi, Figure5StencilSpecialization) {
  const brew_stencil s = brew::stencil::fivePoint();
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 3);
  brew_setpar(conf, 2, BREW_KNOWN);        // xs
  brew_setpar_ptr(conf, 3, sizeof s);      // BREW_PTR_TOKNOWN
  brew_setret(conf, BREW_RET_DOUBLE);
  brew_func* h = brew_rewrite2(conf, (void*)brew_stencil_apply, (uint64_t)0,
                               (uint64_t)64, (uint64_t)&s);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  brew_stencil_fn app2 = (brew_stencil_fn)brew_func_entry(h);

  brew::stencil::Matrix m(64, 32);
  m.fillDeterministic();
  for (int y = 1; y < 31; ++y)
    for (int x = 1; x < 63; ++x) {
      const double* cell = m.data() + y * 64 + x;
      ASSERT_DOUBLE_EQ(app2(cell, 64, &s),
                       brew_stencil_apply(cell, 64, &s));
    }
  brew_stats stats;
  brew_func_getstats(h, &stats);
  EXPECT_GT(stats.elided_instructions, 10u);
  EXPECT_GT(stats.code_bytes, 0u);
  brew_release_h(h);
  brew_freeConf(conf);
}

// The block-chained tier's knob (docs/BLOCKS.md), the fork-depth cap, is
// a word of the cache key: two confs that differ only in it must get
// distinct cached specializations that compute the same results.
TEST(CApi, BlockTierKnobs) {
  brew_conf* deep = brew_initConf();
  brew_setnpar(deep, 2);
  brew_setret(deep, BREW_RET_INT);

  brew_conf* shallow = brew_initConf();
  brew_setnpar(shallow, 2);
  brew_setret(shallow, BREW_RET_INT);
  brew_set_max_fork_depth(shallow, 4);

  brew_func* a = brew_rewrite2(deep, (void*)addmul, 3, 4);
  brew_func* b = brew_rewrite2(shallow, (void*)addmul, 3, 4);
  ASSERT_NE(a, nullptr) << brew_lastError(deep);
  ASSERT_NE(b, nullptr) << brew_lastError(shallow);
  EXPECT_NE(brew_func_entry(a), brew_func_entry(b));
  for (int x : {-5, 0, 3, 11})
    EXPECT_EQ(((addmul_t)brew_func_entry(a))(x, 4),
              ((addmul_t)brew_func_entry(b))(x, 4));
  EXPECT_EQ(((addmul_t)brew_func_entry(a))(3, 4), addmul(3, 4));
  brew_release_h(a);
  brew_release_h(b);
  brew_freeConf(deep);
  brew_freeConf(shallow);
}

// Each parameter setter leaves exactly the state it names: a parameter
// taken back with BREW_UNKNOWN is a call-time input again, so rewrites
// differing only in it share one specialization, and a pointer-to-known
// declaration overridden by BREW_KNOWN keys like plain BREW_KNOWN.
TEST(CApi, SetparUnknownTakesBackKnown) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setret(conf, BREW_RET_INT);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setpar(conf, 1, BREW_UNKNOWN);
  brew_func* a = brew_rewrite2(conf, (void*)xorshift, 3, 4);
  brew_func* b = brew_rewrite2(conf, (void*)xorshift, 5, 6);
  ASSERT_NE(a, nullptr) << brew_lastError(conf);
  ASSERT_NE(b, nullptr) << brew_lastError(conf);
  EXPECT_EQ(brew_func_entry(a), brew_func_entry(b));
  EXPECT_EQ(((addmul_t)brew_func_entry(a))(7, 2), xorshift(7, 2));
  EXPECT_EQ(((addmul_t)brew_func_entry(b))(9, 1), xorshift(9, 1));
  brew_release_h(a);
  brew_release_h(b);

  brew_setpar_double(conf, 1, BREW_KNOWN);
  brew_setpar_double(conf, 1, BREW_UNKNOWN);
  brew_setpar_double(conf, 2, BREW_KNOWN);
  brew_setpar_double(conf, 2, BREW_UNKNOWN);
  brew_setret(conf, BREW_RET_DOUBLE);
  brew_func* c = brew_rewrite2(conf, (void*)scale, 1.5, 2.0);
  brew_func* d = brew_rewrite2(conf, (void*)scale, 2.5, 4.0);
  ASSERT_NE(c, nullptr) << brew_lastError(conf);
  ASSERT_NE(d, nullptr) << brew_lastError(conf);
  EXPECT_EQ(brew_func_entry(c), brew_func_entry(d));
  EXPECT_DOUBLE_EQ(((scale_t)brew_func_entry(c))(3.0, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(((scale_t)brew_func_entry(d))(8.0, 0.25), 2.0);
  brew_release_h(c);
  brew_release_h(d);
  brew_freeConf(conf);

  brew_conf* known = brew_initConf();
  brew_setnpar(known, 2);
  brew_setpar(known, 1, BREW_KNOWN);
  brew_conf* wasPtr = brew_initConf();
  brew_setnpar(wasPtr, 2);
  brew_setpar_ptr(wasPtr, 1, 16);
  brew_setpar(wasPtr, 1, BREW_KNOWN);
  brew_func* e = brew_rewrite2(known, (void*)mulsub, 3, 4);
  brew_func* f = brew_rewrite2(wasPtr, (void*)mulsub, 3, 4);
  ASSERT_NE(e, nullptr) << brew_lastError(known);
  ASSERT_NE(f, nullptr) << brew_lastError(wasPtr);
  EXPECT_EQ(brew_func_entry(e), brew_func_entry(f));
  EXPECT_EQ(((addmul_t)brew_func_entry(f))(0, 5), mulsub(3, 5));
  brew_release_h(e);
  brew_release_h(f);
  brew_freeConf(known);
  brew_freeConf(wasPtr);
}

TEST(CApi, SetmemDeclaresConstantData) {
  static int64_t table[4] = {5, 10, 15, 20};
  // lookup(i) through a compiled helper using the table via a pointer.
  struct Helpers {
    static int64_t lookup(const int64_t* t, long i) { return t[i]; }
  };
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);  // table pointer fixed
  brew_setpar(conf, 2, BREW_KNOWN);  // index fixed
  brew_setmem(conf, table, table + 4, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  using lookup_t = int64_t (*)(const int64_t*, long);
  brew_func* h = brew_rewrite2(conf, (void*)&Helpers::lookup,
                               (uint64_t)table, (uint64_t)2);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  lookup_t fn = (lookup_t)brew_func_entry(h);
  EXPECT_EQ(fn(nullptr, 0), 15);
  brew_release_h(h);
  brew_freeConf(conf);
}

TEST(CApi, FailureReportsMessage) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 0);
  static const uint8_t bogus[] = {0x0f, 0xa2, 0xc3};  // cpuid; ret
  brew_func* result = brew_rewrite2(conf, (const void*)bogus);
  EXPECT_EQ(result, nullptr);
  EXPECT_NE(std::string(brew_lastError(conf)).find("Undecodable"),
            std::string::npos);
  brew_freeConf(conf);
}

TEST(CApi, NullSafety) {
  EXPECT_EQ(brew_rewrite2(nullptr, (void*)addmul), nullptr);
  brew_conf* conf = brew_initConf();
  EXPECT_EQ(brew_rewrite2(conf, nullptr), nullptr);
  brew_release_h(nullptr);         // no-op
  brew_setpar(nullptr, 1, BREW_KNOWN);
  brew_setpar(conf, 0, BREW_KNOWN);   // out of range: ignored
  brew_setpar(conf, 99, BREW_KNOWN);  // out of range: ignored
  EXPECT_EQ(brew_dispatch_create(nullptr, (void*)addmul, 1), nullptr);
  EXPECT_EQ(brew_dispatch_create(conf, nullptr, 1), nullptr);
  EXPECT_EQ(brew_dispatch_entry(nullptr), nullptr);
  EXPECT_EQ(brew_dispatch_variant_count(nullptr), 0u);
  brew_dispatch_free(nullptr);     // no-op
  brew_dispatch_bump_epoch(nullptr);
  EXPECT_EQ(brew_func_variants((void*)addmul, nullptr, 0), 0u);
  brew_freeConf(conf);
  brew_freeConf(nullptr);
}

TEST(CApiV2, HandleLifecycle) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  brew_func* h = brew_rewrite2(conf, (void*)addmul, (uint64_t)6, (uint64_t)0);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);

  addmul_t fn = (addmul_t)brew_func_entry(h);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(1, 2), 6 * 7 + 2);

  brew_stats stats;
  brew_func_getstats(h, &stats);
  EXPECT_GT(stats.code_bytes, 0u);
  EXPECT_GT(stats.traced_instructions, 0u);

  // A retained handle needs two releases; the code stays callable until
  // the last one.
  brew_func* same = brew_retain(h);
  EXPECT_EQ(same, h);
  brew_release_h(h);
  EXPECT_EQ(((addmul_t)brew_func_entry(same))(0, 5), 6 * 7 + 5);
  brew_release_h(same);
  brew_release_h(nullptr);  // no-op
  EXPECT_EQ(brew_func_entry(nullptr), nullptr);
  brew_freeConf(conf);
}

TEST(CApiV2, CacheDeduplicatesIdenticalRewrites) {
  brew_cache_reset();
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);

  brew_func* a = brew_rewrite2(conf, (void*)addmul, (uint64_t)8, (uint64_t)0);
  brew_func* b = brew_rewrite2(conf, (void*)addmul, (uint64_t)8, (uint64_t)0);
  ASSERT_NE(a, nullptr) << brew_lastError(conf);
  ASSERT_NE(b, nullptr) << brew_lastError(conf);
  EXPECT_NE(a, b);  // distinct handles...
  EXPECT_EQ(brew_func_entry(a), brew_func_entry(b));  // ...same code

  brew_cache_stats cache;
  brew_getcachestats(&cache);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_GT(cache.code_bytes, 0u);
  EXPECT_GT(cache.capacity_bytes, 0u);

  brew_release_h(a);
  brew_release_h(b);
  brew_freeConf(conf);
}

TEST(CApiV2, CacheBudgetDrivesEviction) {
  brew_cache_reset();
  brew_cache_set_budget(1);
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);

  brew_func* a = brew_rewrite2(conf, (void*)addmul, (uint64_t)1, (uint64_t)0);
  brew_func* b = brew_rewrite2(conf, (void*)addmul, (uint64_t)2, (uint64_t)0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  brew_cache_stats cache;
  brew_getcachestats(&cache);
  EXPECT_GE(cache.evictions, 1u);
  // The evicted rewrite stays executable through its handle.
  EXPECT_EQ(((addmul_t)brew_func_entry(a))(9, 3), 1 * 7 + 3);

  brew_release_h(a);
  brew_release_h(b);
  brew_freeConf(conf);
  brew_cache_reset();
  brew_cache_set_budget(64 << 20);
}

TEST(CApi, NoUnrollFlag) {
  // Sum loop with known bound: NOUNROLL keeps it a loop.
  struct Helpers {
    static __attribute__((noinline)) int64_t sum(int64_t n) {
      int64_t s = 0;
      for (int64_t i = 1; i <= n; i++) s += i;
      return s;
    }
  };
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 1);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  brew_setfn(conf, (void*)&Helpers::sum, BREW_FN_NOUNROLL);
  using sum_t = int64_t (*)(int64_t);
  const brew::telemetry::Counter& packed =
      brew::telemetry::counter(brew::telemetry::CounterId::PassLoopsVectorized);
  const uint64_t packedBefore = packed.value();
  brew_func* h = brew_rewrite2(conf, (void*)&Helpers::sum, (uint64_t)50);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  sum_t fn = (sum_t)brew_func_entry(h);
  EXPECT_EQ(fn(0), 50 * 51 / 2);
  brew_stats stats;
  brew_func_getstats(h, &stats);
  EXPECT_LT(stats.code_bytes, 512u);  // loop kept, not 50x unrolled
  // An integer reduction: the kept loop is not packed.
  EXPECT_EQ(packed.value(), packedBefore);
  brew_release_h(h);
  brew_freeConf(conf);
}

/* ---- brew_dispatch ----------------------------------------------------- */

TEST(CApiDispatch, MultiVersionDispatchAndIntrospection) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setret(conf, BREW_RET_INT);
  // Dispatch on parameter 1 of addmul: variants bake the first argument.
  // The variadic values are the tracing prototype (param 1 is replaced
  // per variant).
  brew_dispatch* d =
      brew_dispatch_create(conf, (void*)addmul, 1, (uint64_t)0, (uint64_t)0);
  ASSERT_NE(d, nullptr) << brew_lastError(conf);
  addmul_t entry = (addmul_t)brew_dispatch_entry(d);
  ASSERT_NE(entry, nullptr);

  // Hammer two hot keys past the sampling gate and promotion threshold.
  // Every call must stay correct whether it runs the original, the stub
  // miss path, or a specialized variant.
  for (int round = 0; round < 300; ++round) {
    EXPECT_EQ(entry(4, round), addmul(4, round));
    EXPECT_EQ(entry(9, round), addmul(9, round));
  }
  EXPECT_GE(brew_dispatch_variant_count(d), 1u);
  EXPECT_LE(brew_dispatch_variant_count(d), 4u);

  // Process-wide aggregate sees this dispatcher.
  brew_variant_stats vs;
  brew_getvariantstats(&vs);
  EXPECT_GE(vs.functions, 1u);
  EXPECT_GE(vs.variants_live, 1u);
  EXPECT_GT(vs.variant_hits + vs.table_hits + vs.misses, 0u);

  // Per-function snapshot: keys are the observed hot values.
  brew_func_variant vars[8];
  size_t n = brew_func_variants((void*)addmul, vars, 8);
  ASSERT_GE(n, 1u);
  ASSERT_LE(n, 8u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(vars[i].key == 4u || vars[i].key == 9u);
    EXPECT_NE(vars[i].entry, nullptr);
    EXPECT_GT(vars[i].code_bytes, 0u);
  }
  // A too-small buffer still reports the live count.
  EXPECT_EQ(brew_func_variants((void*)addmul, vars, 0), n);

  // Epoch bump retires every variant; dispatch keeps working.
  brew_dispatch_bump_epoch(d);
  EXPECT_EQ(entry(4, 1), addmul(4, 1));
  brew_dispatch_free(d);
  brew_freeConf(conf);
}

TEST(CApiDispatch, RejectsFloatAndOutOfRangeParam) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar_double(conf, 1, BREW_UNKNOWN);
  brew_setpar_double(conf, 2, BREW_UNKNOWN);
  brew_setret(conf, BREW_RET_DOUBLE);
  EXPECT_EQ(brew_dispatch_create(conf, (void*)scale, 1), nullptr);
  EXPECT_STRNE(brew_lastError(conf), "");
  EXPECT_EQ(brew_dispatch_create(conf, (void*)scale, 0), nullptr);
  EXPECT_EQ(brew_dispatch_create(conf, (void*)scale, 3), nullptr);
  brew_freeConf(conf);
}

/* ---- brew_rewrite_batch ----------------------------------------------- */

TEST(CApiBatch, EmptyBatchCompletesImmediately) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setret(conf, BREW_RET_INT);
  brew_batch* batch = brew_rewrite_batch(conf, nullptr, 0, (uint64_t)1,
                                         (uint64_t)2);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(brew_batch_size(batch), 0u);
  EXPECT_EQ(brew_batch_next(batch), -1);  // nothing to wait for
  EXPECT_EQ(brew_batch_next(batch), -1);  // and stays that way
  brew_batch_free(batch);
  brew_freeConf(conf);
}

TEST(CApiBatch, HandlesArriveInCompletionOrderEachIndexOnce) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  const void* fns[] = {(const void*)addmul, (const void*)mulsub,
                       (const void*)xorshift};
  brew_batch* batch =
      brew_rewrite_batch(conf, fns, 3, (uint64_t)21, (uint64_t)0);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(brew_batch_size(batch), 3u);

  std::set<int> claimed;
  for (int i = 0; i < 3; ++i) {
    const int index = brew_batch_next(batch);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, 3);
    EXPECT_TRUE(claimed.insert(index).second) << "index returned twice";
    brew_func* fn = brew_batch_take(batch, (size_t)index);
    ASSERT_NE(fn, nullptr) << brew_lastError(conf);
    auto specialized = (addmul_t)brew_func_entry(fn);
    int (*original)(int, int) =
        index == 0 ? addmul : (index == 1 ? mulsub : xorshift);
    EXPECT_EQ(specialized(1, 5), original(21, 5));  // arg 1 baked to 21
    brew_release_h(fn);
  }
  EXPECT_EQ(brew_batch_next(batch), -1);  // all indexes claimed
  brew_batch_free(batch);
  brew_freeConf(conf);
}

TEST(CApiBatch, DuplicateFunctionsSingleFlight) {
  brew_cache_reset();
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);

  brew_cache_stats before{};
  brew_getcachestats(&before);
  /* A baked value no other test uses, so the key is cold. */
  const void* fns[] = {(const void*)addmul, (const void*)addmul,
                       (const void*)addmul, (const void*)addmul};
  brew_batch* batch =
      brew_rewrite_batch(conf, fns, 4, (uint64_t)4242, (uint64_t)0);
  ASSERT_NE(batch, nullptr);

  void* entry = nullptr;
  for (int i = 0; i < 4; ++i) {
    const int index = brew_batch_next(batch);
    ASSERT_GE(index, 0);
    brew_func* fn = brew_batch_take(batch, (size_t)index);
    ASSERT_NE(fn, nullptr) << brew_lastError(conf);
    if (entry == nullptr) entry = brew_func_entry(fn);
    /* All four items share one cached code object. */
    EXPECT_EQ(brew_func_entry(fn), entry);
    brew_release_h(fn);
  }
  brew_cache_stats after{};
  brew_getcachestats(&after);
  EXPECT_EQ(after.misses - before.misses, 1u);  /* traced exactly once */
  EXPECT_EQ(after.hits - before.hits, 3u);
  brew_batch_free(batch);
  brew_freeConf(conf);
}

TEST(CApiBatch, FailingFunctionDoesNotPoisonTheRest) {
  static const uint8_t bogus[] = {0x0f, 0xa2, 0xc3};  // cpuid; ret
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  const void* fns[] = {(const void*)addmul, (const void*)bogus,
                       (const void*)mulsub, nullptr};
  brew_batch* batch =
      brew_rewrite_batch(conf, fns, 4, (uint64_t)7, (uint64_t)0);
  ASSERT_NE(batch, nullptr);

  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 4; ++i) {
    const int index = brew_batch_next(batch);
    ASSERT_GE(index, 0);
    brew_func* fn = brew_batch_take(batch, (size_t)index);
    if (index == 1 || index == 3) {
      EXPECT_EQ(fn, nullptr);
      EXPECT_STRNE(brew_lastError(conf), "");  // claim reported the cause
      ++failures;
    } else {
      ASSERT_NE(fn, nullptr) << brew_lastError(conf);
      auto specialized = (addmul_t)brew_func_entry(fn);
      EXPECT_EQ(specialized(0, 9), index == 0 ? addmul(7, 9) : mulsub(7, 9));
      brew_release_h(fn);
      ++successes;
    }
  }
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(successes, 2);
  brew_batch_free(batch);
  brew_freeConf(conf);
}

TEST(CApiBatch, LastErrorStaysThreadLocal) {
  static const uint8_t bogus[] = {0x0f, 0xa2, 0xc3};  // cpuid; ret
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 0);
  const void* fns[] = {(const void*)bogus};
  brew_batch* batch = brew_rewrite_batch(conf, fns, 1);
  ASSERT_NE(batch, nullptr);

  /* Claim the failure on a helper thread: the error must land in THAT
   * thread's slot and never leak into this one. */
  std::string helperError;
  std::thread helper([&] {
    const int index = brew_batch_next(batch);
    EXPECT_EQ(index, 0);
    helperError = brew_lastError(conf);
  });
  helper.join();
  EXPECT_NE(helperError, "");
  EXPECT_STREQ(brew_lastError(conf), "");  // main thread never failed

  brew_batch_free(batch);
  brew_freeConf(conf);
}

}  // namespace
