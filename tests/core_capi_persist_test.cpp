// Persistence C API smoke — brew_options_set_cache_dir routed through
// brew_configure, then brew_getpersiststats observed across a cold
// rewrite and a warm cache hit. Runs in its own binary because
// brew_configure freezes the process-wide manager on first rewrite, so
// the cache directory must be installed before any other test touches
// the C API.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "core/brew.h"

namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

std::string makeTempDir() {
  char templ[] = "/tmp/brew-capi-persist-XXXXXX";
  const char* dir = mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

TEST(CApiPersist, NullStatsPointerIsNoop) {
  brew_getpersiststats(nullptr);  // must not crash (before configure, too)
}

TEST(CApiPersist, CacheDirConfiguresAndStatsTrackColdThenWarm) {
  const std::string dir = makeTempDir();
  ASSERT_FALSE(dir.empty());

  brew_options* opt = brew_options_init();
  ASSERT_NE(opt, nullptr);
  brew_options_set_cache_dir(opt, nullptr);  // tolerated, clears the field
  brew_options_set_cache_dir(opt, dir.c_str());
  ASSERT_EQ(brew_configure(opt), 0);
  brew_options_free(opt);

  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);

  brew_func* h = brew_rewrite2(conf, (void*)addmul, 6, 0);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  EXPECT_EQ(((addmul_t)brew_func_entry(h))(0, 5), addmul(6, 5));

  brew_persist_stats cold;
  std::memset(&cold, 0xff, sizeof cold);
  brew_getpersiststats(&cold);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GE(cold.misses, 1u);       // empty store probed before tracing
  EXPECT_GE(cold.writes, 1u);       // finished unit published to disk
  EXPECT_EQ(cold.rejects, 0u);
  EXPECT_EQ(cold.serving_pages, 0u);  // no page server: files are mapped

  // Same key again: served from the in-memory cache, so persist traffic
  // must not move — the store is a backstop, not the hot path.
  brew_func* again = brew_rewrite2(conf, (void*)addmul, 6, 0);
  ASSERT_NE(again, nullptr);
  brew_persist_stats warm;
  brew_getpersiststats(&warm);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.writes, cold.writes);
  EXPECT_EQ(warm.shared_maps, 0u);  // nothing was loaded from disk

  brew_release_h(again);
  brew_release_h(h);
  brew_freeConf(conf);

  const std::string cleanup = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

}  // namespace
