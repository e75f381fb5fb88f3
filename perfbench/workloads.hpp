// The four workloads and the shared reporting of the BREW benchmark. Every
// workload runs single-process and closed loop: one client thread waits for
// each operation, as an HPC rank calling rewrite() does. See README.md for
// why each workload exists and which layer metric moves which end-to-end
// metric.
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

void runKernelLoop(const RunOptions& options, Outcome& out);
void runRespecialize(const RunOptions& options, Outcome& out);
void runWidthShift(const RunOptions& options, Outcome& out);
void runWarmRestart(const RunOptions& options, Outcome& out);

// SpecManager options every workload uses: the library defaults, with the
// worker pool sized from nproc.
brew::SpecManager::Options managerOptions(const RunOptions& options);

// End-to-end metrics of an untraced run. `ops` holds one latency (us) per
// operation and the workload's reference operations; `tailQ` is the
// workload's fixed tail quantile.
void reportEndToEnd(Outcome& out, const std::vector<double>& setupSeconds,
                    OpLog& ops, double tailQ);

// The traced run's view of the same loop, so the tracing overhead reads as
// traced.* against the untraced run's op_vs_ref_p50 / op_vs_ref_mean; plus
// the median operation time itself.
void reportTraced(Outcome& out, OpLog& ops);

// --- layer panel -----------------------------------------------------------
// A traced run must report every per-layer metric of BENCHMARK.json, on
// every workload. Layers the workload's own loop drives are measured from
// its spans; a layer it leaves idle is measured after the timed loop by a
// short fixed scenario from the workload that owns that layer. Those
// figures are the scenario's, not the workload's: read each layer from the
// workload that owns it (README.md).

// The cold-request ledger of a workload whose misses happen in set-up or
// inside the library: each round builds a fresh SpecManager, times
// SpecManager::rewrite of every request (a miss) and replays the request
// through the ledger beside it, before it in odd rounds and after it in
// even ones. Unlike respecialize's ledger its residual is not checked: the
// replay of a large trace can run slower than the live miss.
void coldLedger(const RunOptions& options,
                const std::vector<ColdRequest>& requests, int rounds,
                Spans& spans, Outcome& out);

// isa: decodeOne over each subject's bytes up to its first ret.
void panelDecode(const std::vector<const void*>& subjects, Spans& spans,
                 Outcome& out);

// spec_manager / code_cache hit path: makeCacheKey, CodeCache::lookup with
// the prebuilt key, and a full SpecManager::rewrite hit, over requests whose
// code `manager` already caches; plus the cache's counters as they stood
// at the end of the timed loop (`loopStats`).
void panelHitPath(brew::SpecManager& manager,
                  const std::vector<ColdRequest>& cached,
                  const brew::CacheStats& loopStats, Spans& spans,
                  Outcome& out);

// kernel: a few interleaved kernel_loop rounds (kernel_loop.cpp).
void panelKernel(const RunOptions& options, Spans& spans, Outcome& out);

// dispatch: a width-keyed dispatcher adapting to a fresh width, then entry
// vs direct calls (width_shift.cpp).
void panelDispatch(const RunOptions& options, Spans& spans, Outcome& out);

// persist: populate, probe and re-write a private store (warm_restart.cpp).
void panelPersist(const RunOptions& options, Spans& spans, Outcome& out);

}  // namespace perfbench
