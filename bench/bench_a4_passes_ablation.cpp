// A4 (§IV): ablation of the rewriter's optimization passes. The paper's
// prototype had none ("there currently are no optimization passes
// implemented") and names them as future work; this measures what the
// implemented passes contribute on the rewritten stencil.
#include "bench_common.hpp"
#include "stencil_bench_common.hpp"

using namespace brew;
using namespace brew::bench;
using stencil::Matrix;

namespace {

const brew_stencil g_s = stencil::fivePoint();
RewrittenFunction g_withPasses;
RewrittenFunction g_withoutPasses;

void BM_WithPasses(benchmark::State& state) {
  Matrix m(kSide, kSide);
  m.fillDeterministic();
  const double* cell = m.data() + kSide + 1;
  auto fn = g_withPasses.as<brew_stencil_fn>();
  for (auto _ : state) benchmark::DoNotOptimize(fn(cell, kSide, &g_s));
}
BENCHMARK(BM_WithPasses);

void BM_WithoutPasses(benchmark::State& state) {
  Matrix m(kSide, kSide);
  m.fillDeterministic();
  const double* cell = m.data() + kSide + 1;
  auto fn = g_withoutPasses.as<brew_stencil_fn>();
  for (auto _ : state) benchmark::DoNotOptimize(fn(cell, kSide, &g_s));
}
BENCHMARK(BM_WithoutPasses);

}  // namespace

int main(int argc, char** argv) {
  const int iters = iterations();
  g_withPasses = rewriteApply(g_s, /*withPasses=*/true);
  g_withoutPasses = rewriteApply(g_s, /*withPasses=*/false);

  std::printf("A4: optimization-pass ablation on the rewritten stencil\n");
  std::printf("  with passes:    %zu instructions, %zu bytes\n",
              g_withPasses.emitStats().instructions,
              g_withPasses.codeSize());
  std::printf("  without passes: %zu instructions, %zu bytes\n",
              g_withoutPasses.emitStats().instructions,
              g_withoutPasses.codeSize());

  Matrix a(kSide, kSide), b(kSide, kSide);
  a.fillDeterministic();
  const double with = bestOf(2, [&] {
    stencil::runIterations(a, b, iters, g_withPasses.as<brew_stencil_fn>(),
                           g_s);
  });
  const double checksum = a.interiorChecksum();
  a.fillDeterministic();
  const double without = bestOf(2, [&] {
    stencil::runIterations(a, b, iters,
                           g_withoutPasses.as<brew_stencil_fn>(), g_s);
  });

  PaperTable table("A4", "rewriter passes on vs off (paper §IV: none yet)");
  table.addRow("rewritten, passes off (= paper)", 0.88, without);
  table.addRow("rewritten, passes on (ext.)", -1.0, with);
  table.print();

  // Speed of the pass-on kernel relative to pass-off (higher is better;
  // on the flat stencil the passes change few instructions, so ~1).
  recordMetric("passes_speedup", without / with);

  ShapeChecks checks;
  checks.expect(std::abs(checksum - a.interiorChecksum()) < 1e-12,
                "passes preserve semantics exactly");
  checks.expect(g_withPasses.emitStats().instructions <=
                    g_withoutPasses.emitStats().instructions,
                "passes never grow the code");
  // Cross-iteration load elimination and return-copy coalescing make the
  // two variants different code (a hoisted coefficient, no return copy);
  // the bound leaves room for scheduler noise on a shared single core.
  checks.expect(with <= without * 1.25,
                "passes never slow the code down (within noise)");
  return finish(checks, argc, argv);
}
