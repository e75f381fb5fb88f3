// Optimization passes over captured code (§IV).
//
// The rewriter's input is already compiler-optimized, so these passes only
// clean up artifacts of tracing itself: materializations that turned out
// redundant, stub blocks left by resolved control flow, and loads duplicated
// by unrolling. They run on the block CFG before emission.
#include <bit>
#include <vector>

#include "core/passes/passes.hpp"
#include "core/rewriter.hpp"
#include "ir/captured.hpp"
#include "isa/instruction.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {

// --- block merging ----------------------------------------------------------
//
// A block reached only by a single unconditional-jump predecessor is
// appended to it; whole chains fold into their head in one sweep. The
// emptied block becomes unreachable; the emitter's layout prunes
// unreachable blocks, so no stub code is generated.

size_t runMergeBlocks(ir::CapturedFunction& fn) {
  const int n = fn.blockCount();
  static thread_local std::vector<int> predCount;
  predCount.assign(static_cast<size_t>(n), 0);
  auto note = [&](int succ) {
    if (succ >= 0) ++predCount[static_cast<size_t>(succ)];
  };
  for (int i = 0; i < n; ++i) {
    const ir::Terminator& t = fn.block(i).term;
    if (t.kind == ir::Terminator::Kind::Jmp) note(t.taken);
    if (t.kind == ir::Terminator::Kind::CondJmp) {
      note(t.taken);
      note(t.fall);
    }
  }

  size_t merged = 0;
  for (int a = 0; a < n; ++a) {
    ir::Block& into = fn.block(a);
    while (into.term.kind == ir::Terminator::Kind::Jmp) {
      const int b = into.term.taken;
      if (b < 0 || b == a || b == fn.entry() ||
          predCount[static_cast<size_t>(b)] != 1)
        break;
      ir::Block& from = fn.block(b);
      into.instrs.insert(into.instrs.end(), from.instrs.begin(),
                         from.instrs.end());
      into.term = from.term;
      from.instrs.clear();
      from.term = ir::Terminator{};  // unreachable; pruned at layout
      from.term.kind = ir::Terminator::Kind::Ret;
      ++merged;
    }
  }
  return merged;
}

}  // namespace

void runPasses(ir::CapturedFunction& fn, const PassOptions& options) {
  using telemetry::counter;
  using telemetry::CounterId;
  if (options.mergeBlocks)
    counter(CounterId::PassBlocksMerged).add(runMergeBlocks(fn));
  if (!options.peephole && !options.crossIterLoads) return;
  Liveness live(fn);
  // Both cross-iteration passes are timed into one phase.vectorize_ns
  // sample per rewrite, each with its own trace span.
  uint64_t vectorizeNs = 0;
  auto timed = [&](auto&& pass) {
    const uint64_t v0 = telemetry::nowNs();
    const size_t n = pass();
    const uint64_t v1 = telemetry::nowNs();
    vectorizeNs += v1 - v0;
    if (telemetry::tracingEnabled()) telemetry::recordSpan("vectorize", v0, v1);
    return n;
  };
  if (options.crossIterLoads)
    counter(CounterId::PassLoadsEliminated)
        .add(timed([&] { return runCrossIterLoads(live); }));
  // Copy coalescing rides on the peephole switch, constant hoisting on the
  // cross-iteration one.
  const RegisterRuleStats rules =
      runRegisterRules(live, options.peephole, options.crossIterLoads);
  counter(CounterId::PassCopiesCoalesced).add(rules.copiesCoalesced);
  counter(CounterId::PassConstsHoisted)
      .add(static_cast<uint64_t>(std::popcount(rules.hoisted)));
  // Loop vectorization runs last: it leaves the liveness behind once it
  // edits the CFG.
  if (options.crossIterLoads) {
    counter(CounterId::PassLoopsVectorized)
        .add(timed([&] { return runLoopVectorize(live, rules.hoisted); }));
    telemetry::histogram(telemetry::HistogramId::PhaseVectorizeNs)
        .record(vectorizeNs);
  }
}

}  // namespace brew
