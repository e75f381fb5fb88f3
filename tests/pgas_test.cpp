// PGAS substrate tests + rewriting of the checked accessor (the DASH
// operator[] story from §I/§V) and §VI domain-map re-specialization.
#include <gtest/gtest.h>

#include "core/rewriter.hpp"
#include "pgas/domain_map.hpp"
#include "pgas/global_array.hpp"
#include "pgas/pgas.h"
#include "pgas/runtime.hpp"

namespace brew::pgas {
namespace {

Runtime::Options smallOptions() {
  Runtime::Options options;
  options.ranks = 4;
  options.myRank = 0;
  options.elementsPerRank = 256;
  options.remoteLatency = 8;
  return options;
}

void fillGlobal(Runtime& rt) {
  for (int r = 0; r < rt.ranks(); ++r) {
    brew_pgas_view v = rt.view(r);
    for (long i = v.local_start; i < v.local_end; ++i)
      rt.segment(r)[i - v.local_start] = static_cast<double>(i) * 0.5;
  }
}

TEST(Pgas, CheckedReadLocalAndRemote) {
  Runtime rt(smallOptions());
  fillGlobal(rt);
  brew_pgas_view v = rt.view(0);
  EXPECT_DOUBLE_EQ(brew_pgas_read(&v, 10), 5.0);       // local
  EXPECT_DOUBLE_EQ(brew_pgas_read(&v, 300), 150.0);    // rank 1
  EXPECT_DOUBLE_EQ(brew_pgas_read(&v, 1000), 500.0);   // rank 3
  EXPECT_EQ(rt.stats().remoteReads, 2u);
}

TEST(Pgas, CheckedWriteRoutesToOwner) {
  Runtime rt(smallOptions());
  brew_pgas_view v = rt.view(0);
  brew_pgas_write(&v, 5, 1.5);
  brew_pgas_write(&v, 700, 2.5);  // rank 2
  EXPECT_DOUBLE_EQ(rt.segment(0)[5], 1.5);
  EXPECT_DOUBLE_EQ(rt.segment(2)[700 - 512], 2.5);
  EXPECT_EQ(rt.stats().remoteWrites, 1u);
}

TEST(Pgas, SumRangeMatchesDirect) {
  Runtime rt(smallOptions());
  fillGlobal(rt);
  brew_pgas_view v = rt.view(0);
  const double sum = brew_pgas_sum_range(&v, 0, 256, &brew_pgas_read);
  double expect = 0.0;
  for (long i = 0; i < 256; ++i) expect += static_cast<double>(i) * 0.5;
  EXPECT_DOUBLE_EQ(sum, expect);
}

Config accessorConfig() {
  Config config;
  config.setParamKnownPtr(0, sizeof(brew_pgas_view));
  config.setReturnKind(ReturnKind::Float);
  config.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_read),
      FunctionOptions{.inlineCalls = false, .pure = true});
  return config;
}

TEST(PgasRewrite, SpecializedAccessorMatchesGeneric) {
  Runtime rt(smallOptions());
  fillGlobal(rt);
  brew_pgas_view v = rt.view(1);  // interior rank: both neighbours remote

  Rewriter rewriter{accessorConfig()};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_pgas_read), &v, 0L);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto read2 = rewritten->as<brew_pgas_read_fn>();

  for (long i = 0; i < rt.globalLength(); i += 7)
    ASSERT_DOUBLE_EQ(read2(&v, i), brew_pgas_read(&v, i)) << "i=" << i;
  // Remote fallback must still be a real (kept) call.
  EXPECT_GE(rewritten->traceStats().keptCalls, 1u);
  // The bounds check must have been folded to immediates: the view struct
  // fields are no longer loaded.
  EXPECT_GE(rewritten->traceStats().elidedInstructions, 2u);
}

TEST(PgasRewrite, SpecializedAccessorIgnoresViewArgument) {
  // The view is baked in: passing a different view pointer at call time
  // must not change the result (paper Fig. 3 semantics).
  Runtime rt(smallOptions());
  fillGlobal(rt);
  brew_pgas_view v0 = rt.view(0);
  Rewriter rewriter{accessorConfig()};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_pgas_read), &v0, 0L);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto read2 = rewritten->as<brew_pgas_read_fn>();
  EXPECT_DOUBLE_EQ(read2(nullptr, 10), brew_pgas_read(&v0, 10));
}

TEST(DomainMapTest, OwnershipAndViews) {
  Runtime rt(smallOptions());
  DomainMap map(rt);
  EXPECT_EQ(map.blockStart(0), 0);
  EXPECT_EQ(map.blockEnd(0), 256);
  EXPECT_EQ(map.blockStart(1), 256);
  EXPECT_EQ(map.blockEnd(3), 1024);
  EXPECT_EQ(map.view(2).local_start, 512);
  EXPECT_EQ(map.view(2).local_end, 768);
}

TEST(DomainMapTest, RedistributeMigratesData) {
  Runtime rt(smallOptions());
  DomainMap map(rt);
  fillGlobal(rt);
  map.redistribute({0, 100, 512, 768, 1024});
  // Global value at index 200 now lives on rank 1.
  EXPECT_EQ(map.blockStart(1), 100);
  EXPECT_EQ(map.blockEnd(1), 512);
  brew_pgas_view v = map.view(1);
  EXPECT_DOUBLE_EQ(v.local_base[200 - v.local_start], 100.0);
}

TEST(DomainMapTest, AccessorRespecializesOnRedistribute) {
  Runtime rt(smallOptions());
  DomainMap map(rt);
  fillGlobal(rt);

  brew_pgas_read_fn f1 = map.accessor(0);
  EXPECT_TRUE(map.lastSpecializationSucceeded());
  brew_pgas_view v0 = map.view(0);
  EXPECT_DOUBLE_EQ(f1(&v0, 10), 5.0);
  EXPECT_EQ(map.respecializations(), 1);

  // Cached until redistribution.
  (void)map.accessor(0);
  EXPECT_EQ(map.respecializations(), 1);

  map.redistribute({0, 100, 512, 768, 1024});
  brew_pgas_read_fn f2 = map.accessor(0);
  EXPECT_EQ(map.respecializations(), 2);
  brew_pgas_view v0b = map.view(0);
  // index 10 still on rank 0; index 200 moved away and must go remote.
  EXPECT_DOUBLE_EQ(f2(&v0b, 10), 5.0);
  rt.resetStats();
  EXPECT_DOUBLE_EQ(f2(&v0b, 200), 100.0);
  EXPECT_EQ(rt.stats().remoteReads, 1u);
}

TEST(DomainMapTest, RejectsBadBoundaries) {
  Runtime rt(smallOptions());
  DomainMap map(rt);
  EXPECT_THROW(map.redistribute({0, 700, 512, 768, 1024}),
               std::invalid_argument);
  EXPECT_THROW(map.redistribute({1, 256, 512, 768, 1024}),
               std::invalid_argument);
}

TEST(GlobalArrayTest, CheckedAccessAndLocality) {
  Runtime rt(smallOptions());
  fillGlobal(rt);
  GlobalArray<double> array(rt, 1);
  EXPECT_EQ(array.size(), rt.globalLength());
  EXPECT_EQ(array.localBegin(), 256);
  EXPECT_EQ(array.localEnd(), 512);
  EXPECT_TRUE(array.isLocal(300));
  EXPECT_FALSE(array.isLocal(100));
  EXPECT_DOUBLE_EQ(array[300], 150.0);  // local
  rt.resetStats();
  EXPECT_DOUBLE_EQ(array[100], 50.0);   // remote
  EXPECT_EQ(rt.stats().remoteReads, 1u);
  array.put(301, 9.5);
  EXPECT_DOUBLE_EQ(array[301], 9.5);
}

TEST(GlobalArrayTest, LocalizedReaderSpecializesOnce) {
  Runtime rt(smallOptions());
  fillGlobal(rt);
  GlobalArray<double> array(rt, 0);
  brew_pgas_read_fn r1 = array.localizedReader();
  brew_pgas_read_fn r2 = array.localizedReader();
  EXPECT_EQ(r1, r2);  // cached
  EXPECT_FALSE(array.specializationFailed());
  const brew_pgas_view& v = array.view();
  for (long i = 0; i < rt.globalLength(); i += 13)
    ASSERT_DOUBLE_EQ(r1(&v, i), brew_pgas_read(&v, i)) << i;
  array.invalidate();
  brew_pgas_read_fn r3 = array.localizedReader();
  EXPECT_DOUBLE_EQ(r3(&v, 10), 5.0);
}

}  // namespace
}  // namespace brew::pgas
