// Block-chained translation tier differential tests (docs/BLOCKS.md):
// randomized branchy functions must compute identical results through the
// default rewrite and through one capped at fork depth 1 (side-exit stubs
// back into the original code), the fork-bomb shape (a run of sequential
// unknown branches) must produce O(blocks) variants rather than O(paths),
// and the fork-depth cap must degrade into correct side-exit stubs instead
// of wrong code.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/rewriter.hpp"
#include "isa/printer.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::Instruction;
using isa::makeInstr;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

using fn_t = uint64_t (*)(uint64_t, uint64_t);

// A function of `diamonds` sequential unknown-branch diamonds: every arm
// mutates the working registers, so each join sees two distinct states and
// the path count doubles per diamond. Both arguments stay unknown, which
// keeps every compare — and therefore every branch — unresolvable.
ExecMemory buildBranchyFunction(Prng& rng, int diamonds) {
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
    const Reg a = pool[rng.below(std::size(pool))];
    const Reg b = pool[rng.below(std::size(pool))];
    as.aluRegReg(Mnemonic::Cmp, a, b, 8);
    jit::Label skip = as.newLabel();
    as.jcc(static_cast<Cond>(rng.below(16)), skip);
    const int armLen = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < armLen; ++i) {
      const Reg dst = pool[rng.below(std::size(pool))];
      const Reg src = pool[rng.below(std::size(pool))];
      switch (rng.below(4)) {
        case 0: as.aluRegReg(Mnemonic::Add, dst, src, 8); break;
        case 1: as.aluRegReg(Mnemonic::Sub, dst, src, 8); break;
        case 2: as.aluRegReg(Mnemonic::Xor, dst, src, 8); break;
        default:
          as.aluRegImm(Mnemonic::Add, dst,
                       static_cast<int64_t>(rng.next() & 0xFFFF), 8);
          break;
      }
    }
    as.bind(skip);
    // Shared join body so the merged block has something to get wrong.
    as.aluRegReg(Mnemonic::Add, pool[rng.below(std::size(pool))],
                 pool[rng.below(std::size(pool))], 8);
  }
  for (Reg r : {Reg::rcx, Reg::rdx, Reg::r8, Reg::r9, Reg::r10})
    as.aluRegReg(Mnemonic::Add, Reg::rax, r);
  as.ret();

  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << mem.error().message();
  return std::move(*mem);
}

Config chainedConfig() {
  Config config;
  config.setReturnKind(ReturnKind::Int);
  return config;
}

// Side-exits at every unknown branch below the first fork.
Config depthCappedConfig() {
  Config config = chainedConfig();
  config.limits().maxForkDepth = 1;
  return config;
}

// How blocks are discovered and stitched, and where the trace side-exits
// back into the original code, must not change what they compute: for any
// input, the default rewrite, the depth-capped rewrite and the original
// must agree bit for bit.
class BlocksDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlocksDifferential, ChainedMatchesGenericAndOriginal) {
  Prng rng(GetParam());
  size_t sideExits = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int diamonds = 1 + static_cast<int>(rng.below(6));
    ExecMemory code = buildBranchyFunction(rng, diamonds);
    auto original = code.entry<fn_t>();

    Rewriter chained{chainedConfig()};
    auto viaChained = chained.rewrite(code.data(), uint64_t{1}, uint64_t{2});
    ASSERT_TRUE(viaChained.ok())
        << "seed " << GetParam() << " trial " << trial << ": "
        << viaChained.error().message();

    Rewriter capped{depthCappedConfig()};
    auto viaCapped = capped.rewrite(code.data(), uint64_t{1}, uint64_t{2});
    ASSERT_TRUE(viaCapped.ok())
        << "seed " << GetParam() << " trial " << trial << ": "
        << viaCapped.error().message();
    sideExits += viaCapped->traceStats().sideExits;

    for (int call = 0; call < 16; ++call) {
      const uint64_t a = rng.next();
      const uint64_t b = rng.next();
      const uint64_t want = original(a, b);
      ASSERT_EQ(viaChained->as<fn_t>()(a, b), want)
          << "chained tier diverged: seed " << GetParam() << " trial "
          << trial << " a=" << a << " b=" << b << "\noriginal:\n"
          << isa::disassemble({code.data(), code.size()},
                              reinterpret_cast<uint64_t>(code.data()))
          << "\nrewritten:\n"
          << viaChained->disassembly();
      ASSERT_EQ(viaCapped->as<fn_t>()(a, b), want)
          << "depth-capped rewrite diverged: seed " << GetParam()
          << " trial " << trial << " a=" << a << " b=" << b
          << "\nrewritten:\n"
          << viaCapped->disassembly();
    }
  }
  EXPECT_GT(sideExits, 0u)
      << "seed " << GetParam() << ": fork-depth cap never side-exited";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlocksDifferential,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

// Resolved forward edges (unconditional jumps, and conditional branches
// whose predicate folds) must continue inline in the current output block
// — the chained tier's terminator patching — instead of round-tripping
// the fork queue. A run of forward jmps is the minimal such shape.
TEST(BlocksChaining, ResolvedForwardJumpsChainInline) {
  jit::Assembler as;
  as.movRegReg(Reg::rax, Reg::rdi);
  constexpr int kHops = 6;
  for (int i = 0; i < kHops; ++i) {
    jit::Label next = as.newLabel();
    as.aluRegImm(Mnemonic::Add, Reg::rax, i + 1, 8);
    as.jmp(next);
    // Unreachable filler the chained trace must skip over.
    as.aluRegImm(Mnemonic::Add, Reg::rax, 1000, 8);
    as.bind(next);
  }
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto mem = as.finalizeExecutable();
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  auto original = mem->entry<fn_t>();

  Rewriter rewriter{chainedConfig()};
  auto rewritten = rewriter.rewrite(mem->data(), uint64_t{1}, uint64_t{2});
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();

  const TraceStats& ts = rewritten->traceStats();
  EXPECT_GE(ts.chainedBlocks, static_cast<size_t>(kHops))
      << "resolved forward jumps did not chain inline";
  // Chaining collapses the whole run into one output block.
  EXPECT_EQ(ts.blocks, 1u) << rewritten->disassembly();
  EXPECT_EQ(rewritten->as<fn_t>()(10, 3), original(10, 3));
}

// Fork bomb: 10 sequential unknown diamonds span 2^10 = 1024 paths. The
// reconvergence predictor must keep the traced block count linear in the
// branch count — a path-enumerating regression blows well past the bound
// (and the variant threshold) immediately.
TEST(BlocksForkBomb, VariantCountStaysLinearInBranches) {
  constexpr int kDiamonds = 10;
  Prng rng(424242);
  ExecMemory code = buildBranchyFunction(rng, kDiamonds);
  auto original = code.entry<fn_t>();

  Rewriter rewriter{chainedConfig()};
  auto rewritten = rewriter.rewrite(code.data(), uint64_t{1}, uint64_t{2});
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();

  const TraceStats& ts = rewritten->traceStats();
  // Entry + per diamond at most an arm block, a join block and one extra
  // variant of either: linear, with headroom for layout details — versus
  // ~2^10 blocks if joins were traced per path.
  EXPECT_LE(ts.blocks, 4u * kDiamonds + 8u) << "path explosion";
  EXPECT_GT(ts.mergedBlocks, 0u) << "reconvergence never merged";
  EXPECT_GE(ts.capturedBranches, static_cast<size_t>(kDiamonds));

  Prng inputs(777);
  for (int call = 0; call < 32; ++call) {
    const uint64_t a = inputs.next();
    const uint64_t b = inputs.next();
    ASSERT_EQ(rewritten->as<fn_t>()(a, b), original(a, b))
        << "a=" << a << " b=" << b;
  }
}

// Fork-depth cap: with a tiny maxForkDepth the tracer must stop forking
// and emit side-exit stubs back into the original code — and the result
// must still be correct on every path, including the side-exited ones.
TEST(BlocksSideExit, DepthCapEmitsCorrectStubs) {
  constexpr int kDiamonds = 8;
  Prng rng(31337);
  ExecMemory code = buildBranchyFunction(rng, kDiamonds);
  auto original = code.entry<fn_t>();

  Config config = chainedConfig();
  config.limits().maxForkDepth = 2;
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(code.data(), uint64_t{1}, uint64_t{2});
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();

  EXPECT_GT(rewritten->traceStats().sideExits, 0u)
      << "fork-depth cap never produced a side exit";

  Prng inputs(888);
  for (int call = 0; call < 32; ++call) {
    const uint64_t a = inputs.next();
    const uint64_t b = inputs.next();
    ASSERT_EQ(rewritten->as<fn_t>()(a, b), original(a, b))
        << "a=" << a << " b=" << b;
  }
}

// TSan entry point (scripts/check_telemetry.sh): independent rewriters on
// independent subjects still share the process-wide decode cache, code
// region index and telemetry registry; racing chained-tier traces across
// threads must be clean.
TEST(ConcurrentBlocksDifferential, RacingChainedTracesStayCorrect) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      Prng rng(9000 + static_cast<uint64_t>(t));
      for (int trial = 0; trial < 8; ++trial) {
        const int diamonds = 2 + static_cast<int>(rng.below(5));
        ExecMemory code = buildBranchyFunction(rng, diamonds);
        auto original = code.entry<fn_t>();
        Rewriter rewriter{chainedConfig()};
        auto rewritten =
            rewriter.rewrite(code.data(), uint64_t{1}, uint64_t{2});
        ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
        for (int call = 0; call < 8; ++call) {
          const uint64_t a = rng.next();
          const uint64_t b = rng.next();
          ASSERT_EQ(rewritten->as<fn_t>()(a, b), original(a, b));
        }
      }
    });
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace brew
