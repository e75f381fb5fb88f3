// E8: block-chained translation tier over a branch-density sweep — our
// extension (docs/BLOCKS.md). The paper's cold-rewrite numbers are
// dominated by straight-line PGAS accessors; this experiment measures the
// branchy case the block-chained tier exists for: functions of d
// sequential unknown-branch diamonds (2^d paths) rewritten cold, and
// once more with a tight fork-depth cap (side-exit stubs). Shape checks
// pin the structural claims — traced blocks stay O(d), not O(2^d),
// reconvergence merges forked states, and the rewrite agrees with the
// original — and the microbenchmark sweep lands in BENCH_results.json.
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/rewriter.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"

using namespace brew;
using namespace brew::bench;

namespace {

using isa::Cond;
using isa::Mnemonic;
using isa::Reg;

using fn_t = uint64_t (*)(uint64_t, uint64_t);

// Same shape as the core_blocks_differential_test generator: d sequential
// unknown diamonds whose arms mutate the working registers, so every join
// sees two distinct known-world states and the path count doubles per
// diamond. d = 0 degenerates to the straight-line control.
ExecMemory buildBranchy(Prng& rng, int diamonds) {
  jit::Assembler as;
  const Reg pool[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::r8, Reg::r9,
                      Reg::r10};
  as.movRegReg(Reg::rax, Reg::rdi);
  as.movRegReg(Reg::rcx, Reg::rsi);
  as.movRegReg(Reg::rdx, Reg::rdi);
  as.movRegReg(Reg::r8, Reg::rsi);
  as.movRegReg(Reg::r9, Reg::rdi);
  as.movRegReg(Reg::r10, Reg::rsi);
  for (int d = 0; d < diamonds; ++d) {
    as.aluRegReg(Mnemonic::Cmp, pool[rng.below(std::size(pool))],
                 pool[rng.below(std::size(pool))], 8);
    jit::Label skip = as.newLabel();
    as.jcc(static_cast<Cond>(rng.below(16)), skip);
    const int armLen = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < armLen; ++i)
      as.aluRegReg(rng.chance(0.5) ? Mnemonic::Add : Mnemonic::Xor,
                   pool[rng.below(std::size(pool))],
                   pool[rng.below(std::size(pool))], 8);
    as.bind(skip);
    as.aluRegReg(Mnemonic::Add, pool[rng.below(std::size(pool))],
                 pool[rng.below(std::size(pool))], 8);
  }
  for (Reg r : {Reg::rcx, Reg::rdx, Reg::r8, Reg::r9, Reg::r10})
    as.aluRegReg(Mnemonic::Add, Reg::rax, r);
  as.ret();
  auto mem = as.finalizeExecutable();
  if (!mem.ok()) {
    std::fprintf(stderr, "FATAL: subject emission failed: %s\n",
                 mem.error().message().c_str());
    std::exit(2);
  }
  return std::move(*mem);
}

Config chainedConfig() {
  Config config;
  config.setReturnKind(ReturnKind::Int);
  return config;
}

Config sideExitConfig() {
  Config config = chainedConfig();
  config.limits().maxForkDepth = 2;
  return config;
}

constexpr int kDensities[] = {0, 2, 4, 8, 12, 16};

struct Subject {
  int diamonds = 0;
  ExecMemory code;
};

std::vector<Subject>& subjects() {
  static std::vector<Subject> list;
  return list;
}

// One cold rewrite (fresh Rewriter, no cache) of subject `s` under
// `config`; returns the trace stats for the shape checks.
TraceStats coldRewrite(const Subject& s, const Config& config) {
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(s.code.data(), uint64_t{1}, uint64_t{2});
  if (!rewritten.ok()) {
    std::fprintf(stderr, "FATAL: rewrite (d=%d) failed: %s\n", s.diamonds,
                 rewritten.error().message().c_str());
    std::exit(2);
  }
  return rewritten->traceStats();
}

void BM_BranchyChainCold(benchmark::State& state) {
  const Subject& s = subjects()[static_cast<size_t>(state.range(0))];
  const Config config = chainedConfig();
  for (auto _ : state) {
    Rewriter rewriter{config};
    benchmark::DoNotOptimize(
        rewriter.rewrite(s.code.data(), uint64_t{1}, uint64_t{2}));
  }
  state.SetLabel("diamonds=" + std::to_string(s.diamonds));
}

void BM_BranchySideExitCold(benchmark::State& state) {
  const Subject& s = subjects()[static_cast<size_t>(state.range(0))];
  const Config config = sideExitConfig();
  for (auto _ : state) {
    Rewriter rewriter{config};
    benchmark::DoNotOptimize(
        rewriter.rewrite(s.code.data(), uint64_t{1}, uint64_t{2}));
  }
  state.SetLabel("diamonds=" + std::to_string(s.diamonds));
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E8: block-chained tier over branch density (extension)\n");

  Prng rng(20260808);
  for (int d : kDensities) subjects().push_back({d, buildBranchy(rng, d)});

  ShapeChecks checks;

  // Correctness across the sweep: the rewrite must agree with the
  // original on random inputs (the differential suite fuzzes this harder;
  // here it guards the exact subjects being timed).
  Prng inputs(4242);
  for (const Subject& s : subjects()) {
    auto original = s.code.entry<fn_t>();
    Rewriter chained{chainedConfig()};
    auto viaChained =
        chained.rewrite(s.code.data(), uint64_t{1}, uint64_t{2});
    if (!viaChained.ok()) {
      std::fprintf(stderr, "FATAL: rewrite failed at d=%d\n", s.diamonds);
      return 2;
    }
    bool agree = true;
    for (int call = 0; call < 64; ++call) {
      const uint64_t a = inputs.next();
      const uint64_t b = inputs.next();
      const uint64_t want = original(a, b);
      agree = agree && viaChained->as<fn_t>()(a, b) == want;
    }
    checks.expect(agree, "d=" + std::to_string(s.diamonds) +
                             ": chained rewrite agrees with original");
  }

  // Structural claim: traced blocks grow linearly in branch count.
  PaperTable table("E8", "cold rewrite vs branch density (extension)");
  constexpr int kReps = 400;
  for (const Subject& s : subjects()) {
    const TraceStats ts = coldRewrite(s, chainedConfig());
    if (s.diamonds >= 8) {
      checks.expect(ts.blocks <= 4u * static_cast<size_t>(s.diamonds) + 8u,
                    "d=" + std::to_string(s.diamonds) +
                        ": blocks stay O(branches), not O(paths) (" +
                        std::to_string(ts.blocks) + " blocks)");
      checks.expect(ts.mergedBlocks > 0,
                    "d=" + std::to_string(s.diamonds) +
                        ": reconvergence merging engaged");
    }
    const Config chainedCfg = chainedConfig();
    const double chainedSec = bestOf(5, [&] {
      for (int i = 0; i < kReps; ++i) coldRewrite(s, chainedCfg);
    });
    table.addRow("d=" + std::to_string(s.diamonds) + " chained", -1,
                 chainedSec / kReps);
  }
  table.print();

  const TraceStats sideExit = coldRewrite(subjects().back(), sideExitConfig());
  checks.expect(sideExit.sideExits > 0,
                "d=16 with maxForkDepth=2 emits side-exit stubs");

  for (size_t i = 0; i < subjects().size(); ++i) {
    benchmark::RegisterBenchmark("BM_BranchyChainCold", BM_BranchyChainCold)
        ->Arg(static_cast<int>(i));
  }
  benchmark::RegisterBenchmark("BM_BranchySideExitCold",
                               BM_BranchySideExitCold)
      ->Arg(static_cast<int>(subjects().size() - 1));
  return finish(checks, argc, argv);
}
