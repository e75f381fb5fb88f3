// E4 (§V-B end): optimization across cell updates needs the call site.
// Paper: the manual kernel called through a function pointer runs in
// 0.74 s; moving it into the same compilation unit (compiler inlines and
// optimizes across updates) gives 0.48 s. BREW's analogue — rewriting the
// WHOLE sweep with unrolling disabled, which inlines and specializes the
// per-cell call — is measured as the extension row. A report-only line
// then shows how much that code's speed depends on where it sits in a page.
#include "bench_common.hpp"
#include "stencil_bench_common.hpp"

using namespace brew;
using namespace brew::bench;
using stencil::Matrix;

namespace {

const brew_stencil g_s = stencil::fivePoint();

using sweep_t = void (*)(double*, const double*, int, int, brew_stencil_fn,
                         const brew_stencil*);

// Whole-sweep rewrite: bounds and stencil baked in, function-pointer call
// inlined+specialized, outer loops kept via BREW_FN_NOUNROLL.
Result<RewrittenFunction> rewriteSweep(int side = kSide) {
  Config config;
  config.setParamKnown(2);  // xs
  config.setParamKnown(3);  // ys
  config.setParamKnown(4);  // fn (function pointer -> indirection removed)
  config.setParamKnownPtr(5, sizeof g_s);
  config.setReturnKind(ReturnKind::Void);
  config.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_stencil_sweep),
      FunctionOptions{.inlineCalls = true, .forceUnknownResults = true});
  Rewriter rewriter{config};
  return rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_sweep), nullptr, nullptr,
      side, side, reinterpret_cast<const void*>(&brew_stencil_apply),
      &g_s);
}

void BM_WholeSweepRewrite(benchmark::State& state) {
  for (auto _ : state) {
    auto rewritten = rewriteSweep();
    benchmark::DoNotOptimize(rewritten.ok());
  }
}
BENCHMARK(BM_WholeSweepRewrite);

constexpr int kPlacements = 16;
constexpr int kSweeps = 400;

struct PlacementTimes {
  double fastest = 0.0, slowest = 0.0;
};

// Placement sensitivity of generated code: the whole sweep rewritten for a
// 34x34 matrix (the width_shift shape; both matrices stay in L1, so the
// loop's own speed shows, not memory), its code and literal pool (which it
// addresses RIP-relatively) copied into kPlacements consecutive pages, each
// copy at its own 16-byte-aligned offset within its page. The copies are
// timed round-robin, so a slow moment on a shared host hits every offset
// alike. Returns the fastest and the slowest copy's best time per
// kSweeps sweeps, in seconds, or {} when the rewrite or the mapping fails.
PlacementTimes measurePlacement() {
  constexpr int kPlaceSide = 34;
  constexpr int kRounds = 15;
  constexpr size_t kPage = 4096;
  auto rewritten = rewriteSweep(kPlaceSide);
  if (!rewritten) return {};
  const size_t unit =
      rewritten->emitStats().codeBytes + rewritten->emitStats().poolBytes;
  if (unit + 16 * (kPlacements - 1) > kPage) return {};
  // An odd multiple of 16 bytes: the copies start at every 16-byte
  // residue of a 64-byte cache line.
  size_t step = ((kPage - unit) / (kPlacements - 1)) & ~size_t{15};
  if ((step / 16) % 2 == 0) step -= 16;
  auto region = ExecMemory::allocate(
      kPlacements * kPage + unit,
      reinterpret_cast<const void*>(&brew_stencil_sweep));
  if (!region) return {};
  for (int k = 0; k < kPlacements; ++k)
    std::memcpy(region->writeView() + k * (kPage + step), rewritten->entry(),
                unit);
  if (!region->finalize()) return {};

  Matrix a(kPlaceSide, kPlaceSide), b(kPlaceSide, kPlaceSide);
  std::vector<double> best(kPlacements, 1e300);
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kPlacements; ++k) {
      const auto sweep =
          reinterpret_cast<sweep_t>(region->data() + k * (kPage + step));
      a.fillDeterministic();
      Matrix* src = &a;
      Matrix* dst = &b;
      const Timer timer;
      for (int it = 0; it < kSweeps; ++it) {
        sweep(dst->data(), src->data(), kPlaceSide, kPlaceSide,
              &brew_stencil_apply, &g_s);
        std::swap(src, dst);
      }
      best[static_cast<size_t>(k)] =
          std::min(best[static_cast<size_t>(k)], timer.seconds());
    }
  }
  return {*std::min_element(best.begin(), best.end()),
          *std::max_element(best.begin(), best.end())};
}

}  // namespace

int main(int argc, char** argv) {
  const int iters = iterations();
  std::printf("E4: %d iterations, %dx%d (paper: 1000)\n", iters, kSide,
              kSide);

  Matrix a(kSide, kSide), b(kSide, kSide);

  a.fillDeterministic();
  const double viaPtr = bestOf(2, [&] {
    stencil::runIterationsManualPtr(a, b, iters,
                                    &brew_stencil_apply_manual5);
  });
  const double checksum = a.interiorChecksum();

  a.fillDeterministic();
  const double fused = bestOf(2, [&] {
    stencil::runIterationsManualFused(a, b, iters);
  });
  const double checksumFused = a.interiorChecksum();

  // Extension: whole-sweep rewriting.
  double sweepRewritten = -1.0;
  bool sweepOk = false;
  double checksumSweep = 0.0;
  auto rewritten = rewriteSweep();
  if (rewritten.ok()) {
    sweepOk = true;
    std::printf("whole-sweep rewrite: %zu captured instructions, %zu "
                "bytes, %zu blocks\n",
                rewritten->traceStats().capturedInstructions,
                rewritten->codeSize(), rewritten->traceStats().blocks);
    auto sweep2 = rewritten->as<sweep_t>();
    // Bit-exactness is checked against the generic sweep (same FP order);
    // the manual kernel sums in a different order.
    a.fillDeterministic();
    const double checksumGeneric3 =
        stencil::runIterations(a, b, 3, &brew_stencil_apply, g_s)
            .interiorChecksum();
    a.fillDeterministic();
    {
      Matrix* src = &a;
      Matrix* dst = &b;
      for (int it = 0; it < 3; ++it) {
        sweep2(dst->data(), src->data(), kSide, kSide, &brew_stencil_apply,
               &g_s);
        std::swap(src, dst);
      }
      checksumSweep = src->interiorChecksum() - checksumGeneric3;
    }
    a.fillDeterministic();
    sweepRewritten = bestOf(2, [&] {
      Matrix* src = &a;
      Matrix* dst = &b;
      for (int it = 0; it < iters; ++it) {
        sweep2(dst->data(), src->data(), kSide, kSide, &brew_stencil_apply,
               &g_s);
        std::swap(src, dst);
      }
    });
  } else {
    std::printf("whole-sweep rewrite failed (%s) — falling back to the "
                "original, as the API prescribes\n",
                rewritten.error().message().c_str());
  }

  PaperTable table("E4", "cross-call optimization at the sweep level");
  table.addRow("manual via function pointer", 0.74, viaPtr);
  table.addRow("manual in same TU (compiler)", 0.48, fused);
  if (sweepOk)
    table.addRow("BREW whole-sweep rewrite (ext.)", -1.0, sweepRewritten);
  table.print();
  // Report-only: how much the same generated bytes depend on where they
  // sit in a page.
  if (const PlacementTimes p = measurePlacement(); p.fastest > 0) {
    std::printf("34x34 whole-sweep rewrite at %d offsets in one page, %d "
                "sweeps: fastest %.1f us, slowest %.1f us, slowest / "
                "fastest = %.3f\n",
                kPlacements, kSweeps, p.fastest * 1e6, p.slowest * 1e6,
                p.slowest / p.fastest);
    recordMetric("e4_sweep_placement_spread", p.slowest / p.fastest);
  }

  ShapeChecks checks;
  checks.expect(std::abs(checksumFused - checksum) < 1e-9,
                "fused sweep computes the same result");
  checks.expectFaster(fused, viaPtr, 1.2,
                      "same-TU sweep at least 1.2x faster than the "
                      "pointer call (paper: 1.54x)");
  if (sweepOk) {
    checks.expect(checksumSweep == 0.0,
                  "rewritten sweep is bit-exact with the generic sweep");
    checks.expect(sweepRewritten <= viaPtr * 1.5,
                  "rewritten sweep competitive with the pointer-call "
                  "manual kernel");
  }
  return finish(checks, argc, argv);
}
