// Shared setup for the §V stencil experiments (E1–E5, A1, A4, A5).
//
// Workload: the paper's 500x500 double matrices, ping-pong sweeps with a
// 5-point stencil. The paper runs 1000 iterations; the harness default is
// 300 (scaled for CI-sized machines — ratios are what is reproduced; set
// BREW_BENCH_ITERATIONS to override).
#pragma once

#include <cstdlib>

#include "core/rewriter.hpp"
#include "stencil/stencil.hpp"

namespace brew::bench {

inline constexpr int kSide = 500;

inline int iterations() {
  if (const char* env = std::getenv("BREW_BENCH_ITERATIONS"))
    return std::atoi(env);
  return 300;
}

inline Config stencilConfig(size_t stencilBytes) {
  Config config;
  config.setParamKnown(1);                  // xs (paper Fig. 5)
  config.setParamKnownPtr(2, stencilBytes); // stencil data
  config.setReturnKind(ReturnKind::Float);
  return config;
}

// Rewrites the generic flat-stencil kernel for `s`; aborts on failure
// (the bench cannot report the paper's row without it).
inline RewrittenFunction rewriteApply(const brew_stencil& s,
                                      bool withPasses = true) {
  Rewriter rewriter{stencilConfig(sizeof s)};
  if (!withPasses) {
    rewriter.passes().peephole = false;
    rewriter.passes().crossIterLoads = false;
  }
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kSide, &s);
  if (!rewritten.ok()) {
    std::fprintf(stderr, "FATAL: stencil rewrite failed: %s\n",
                 rewritten.error().message().c_str());
    std::exit(2);
  }
  return std::move(*rewritten);
}

inline RewrittenFunction rewriteApplyGrouped(const brew_gstencil& g) {
  Rewriter rewriter{stencilConfig(sizeof g)};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply_grouped), nullptr,
      kSide, &g);
  if (!rewritten.ok()) {
    std::fprintf(stderr, "FATAL: grouped stencil rewrite failed: %s\n",
                 rewritten.error().message().c_str());
    std::exit(2);
  }
  return std::move(*rewritten);
}

}  // namespace brew::bench
