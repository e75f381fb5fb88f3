// Parallel specialization walkthrough: several threads each specialize
// the generic 5-point stencil for their own stencil data (as a PGAS
// runtime would per rank), served by the sharded specialization cache —
// repeat rewrites are lock-free cached hits. Then one configuration is
// fanned out with the batch API and drained in completion order.
//
//   $ ./parallel_stencil [threads]
//
// The cache has 16 shards (SpecManager::Options::cacheShards, a C++
// field; 1 is the single-lock control mode bench_e6 measures against).
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/brew.h"
#include "stencil/stencil.h"
#include "stencil/stencil.hpp"

namespace {

constexpr int kSide = 200;
constexpr int kRepeatRewrites = 1000;

brew_conf* makeStencilConf() {
  // The paper's Fig. 5 configuration: apply(m, xs, s) with xs a known
  // value and s a pointer to known fixed data.
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 3);
  brew_setpar(conf, 2, BREW_KNOWN);
  brew_setpar_ptr(conf, 3, sizeof(brew_stencil));
  brew_setret(conf, BREW_RET_DOUBLE);
  return conf;
}

// One worker: specialize for this thread's stencil copy, verify the
// specialized sweep against the generic kernel, then rewrite the same
// request in a loop — every repeat is a cached hit (lock-free after the
// first, when the cache is sharded).
int worker(int id) {
  const brew_stencil s = brew::stencil::fivePoint();
  brew_conf* conf = makeStencilConf();
  brew_func* fn = brew_rewrite2(conf, (const void*)&brew_stencil_apply,
                                (uint64_t)0, (uint64_t)kSide, (uint64_t)&s);
  if (fn == nullptr) {
    std::printf("[thread %d] rewrite failed (%s); using the generic kernel\n",
                id, brew_lastError(conf));
    brew_freeConf(conf);
    return 1;
  }

  brew::stencil::Matrix a(kSide, kSide), b(kSide, kSide), a2(kSide, kSide),
      b2(kSide, kSide);
  a.fillDeterministic();
  a2.fillDeterministic();
  const auto& generic =
      brew::stencil::runIterations(a, b, 2, &brew_stencil_apply, s);
  const auto& specialized = brew::stencil::runIterations(
      a2, b2, 2, (brew_stencil_fn)brew_func_entry(fn), s);
  const double diff = brew::stencil::Matrix::maxAbsDiff(generic, specialized);

  for (int i = 0; i < kRepeatRewrites; ++i) {
    brew_func* again = brew_rewrite2(conf, (const void*)&brew_stencil_apply,
                                     (uint64_t)0, (uint64_t)kSide,
                                     (uint64_t)&s);
    brew_release_h(again);  // the cache still holds the code
  }

  brew_stats stats;
  brew_func_getstats(fn, &stats);
  std::printf("[thread %d] specialized: %zu insns traced -> %zu captured, "
              "max sweep diff %g\n",
              id, stats.traced_instructions, stats.captured_instructions,
              diff);

  brew_release_h(fn);
  brew_freeConf(conf);
  return diff == 0.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int nthreads = argc > 1 ? std::atoi(argv[1]) : 4;

  // --- Part 1: per-thread specialization through the shared cache -------
  brew_cache_reset();
  std::vector<std::thread> pool;
  std::vector<int> status(static_cast<size_t>(nthreads), 0);
  for (int t = 0; t < nthreads; ++t)
    pool.emplace_back(
        [&status, t] { status[static_cast<size_t>(t)] = worker(t); });
  for (std::thread& thread : pool) thread.join();
  int failures = 0;
  for (const int s : status) failures += s;

  // Each thread's stencil lives at a different address, so each traced its
  // own variant once; all the repeat rewrites were cache hits, and with a
  // sharded cache most of them never took a lock.
  brew_cache_stats cache;
  brew_getcachestats(&cache);
  std::printf("\ncache after %d threads x %d rewrites:\n", nthreads,
              kRepeatRewrites);
  std::printf("  %zu shards, %zu entries, %zu misses (one trace per "
              "thread), %zu hits\n",
              cache.shards, cache.entries, cache.misses, cache.hits);
  std::printf("  %zu hits served lock-free (%.1f%%), %zu contended lock "
              "waits\n",
              cache.fastpath_hits,
              cache.hits != 0
                  ? 100.0 * (double)cache.fastpath_hits / (double)cache.hits
                  : 0.0,
              cache.shard_contention);

  // --- Part 2: batch rewriting ------------------------------------------
  // One configuration fanned across a function list on the async workers.
  // Here the list is the same kernel four times: the cache deduplicates,
  // so the batch costs one trace and every slot shares the code object.
  const brew_stencil s = brew::stencil::fivePoint();
  brew_conf* conf = makeStencilConf();
  const void* fns[4] = {(const void*)&brew_stencil_apply,
                        (const void*)&brew_stencil_apply,
                        (const void*)&brew_stencil_apply,
                        (const void*)&brew_stencil_apply};
  brew_getcachestats(&cache);
  const size_t missesBefore = cache.misses;

  brew_batch* batch = brew_rewrite_batch(conf, fns, 4, (uint64_t)0,
                                         (uint64_t)kSide, (uint64_t)&s);
  std::printf("\nbatch of %zu requests, drained in completion order:",
              brew_batch_size(batch));
  for (int index = brew_batch_next(batch); index >= 0;
       index = brew_batch_next(batch)) {
    brew_func* fn = brew_batch_take(batch, (size_t)index);
    if (fn == nullptr) {
      std::printf(" #%d=FAILED(%s)", index, brew_lastError(conf));
      ++failures;
      continue;
    }
    std::printf(" #%d", index);
    brew_release_h(fn);
  }
  brew_batch_free(batch);

  brew_getcachestats(&cache);
  std::printf("\nbatch added %zu trace(s) for 4 requests (deduplicated)\n",
              cache.misses - missesBefore);
  brew_freeConf(conf);
  return failures == 0 ? 0 : 1;
}
