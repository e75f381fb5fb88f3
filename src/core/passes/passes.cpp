// Optimization passes over captured code (§IV).
//
// The rewriter's input is already compiler-optimized, so these passes only
// clean up artifacts of tracing itself: materializations that turned out
// redundant, compares whose branches were resolved, and loads duplicated by
// unrolling. They run on the block CFG before emission.
#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "core/passes/passes.hpp"
#include "core/rewriter.hpp"
#include "ir/captured.hpp"
#include "isa/instruction.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

bool hasMemOperand(const Instruction& in) {
  for (unsigned i = 0; i < in.nops; ++i)
    if (in.ops[i].isMem()) return true;
  return false;
}

// --- peephole: remove no-op moves ----------------------------------------

bool isNoopMove(const Instruction& in) {
  if (in.nops != 2 || !in.ops[0].isReg() || !in.ops[1].isReg() ||
      in.ops[0].reg != in.ops[1].reg)
    return false;
  switch (in.mnemonic) {
    case Mnemonic::Mov:
      return in.width == 8;  // 32-bit same-reg mov still zero-extends
    case Mnemonic::Movsd:    // same-register low-lane merge
    case Mnemonic::Movapd:
    case Mnemonic::Movaps:
    case Mnemonic::Movupd:
    case Mnemonic::Movups:
    case Mnemonic::Movdqa:
    case Mnemonic::Movdqu:
      return true;
    default:
      return false;
  }
}

// lea r, [r+0] is a no-op.
bool isNoopLea(const Instruction& in) {
  return in.mnemonic == Mnemonic::Lea && in.ops[0].isReg() &&
         in.ops[1].mem.base == in.ops[0].reg &&
         in.ops[1].mem.index == isa::Reg::none && in.ops[1].mem.disp == 0 &&
         !in.ops[1].mem.ripRelative && in.width == 8;
}

size_t runPeephole(Liveness& live) {
  ir::CapturedFunction& fn = live.fn();
  size_t removed = 0;
  for (int b = 0; b < fn.blockCount(); ++b) {
    // The common block has nothing to remove and is left untouched.
    const ir::InstrVec& v = fn.block(b).instrs;
    bool any = false;
    for (size_t k = 0; k < v.size(); ++k) {
      if (!isNoopMove(v[k]) && !isNoopLea(v[k])) continue;
      live.facts(b)[k] = RegFacts{.dead = true};
      any = true;
    }
    if (any) removed += live.compact(b);
  }
  return removed;
}

// --- dead pure flag writers -----------------------------------------------
//
// A pure flag writer whose flags are overwritten before any consumer (an
// instruction reading them, a conditional jump, a call or anything leaving
// for other code) is removed.

size_t runDeadFlagWriters(Liveness& live) {
  ir::CapturedFunction& fn = live.fn();
  size_t removed = 0;
  for (int b = 0; b < fn.blockCount(); ++b) {
    const ir::InstrVec& v = fn.block(b).instrs;
    const std::span<RegFacts> fx = live.facts(b);
    RegSet flags = live.liveOut(b) & kFlags;
    size_t dead = 0;
    for (size_t k = v.size(); k-- > 0;) {
      // Memory-operand compares are kept so that an injected onLoad
      // handler still sees every captured load.
      if (flags == 0 && isa::row(v[k].mnemonic).has(isa::kCompare) &&
          !hasMemOperand(v[k])) {
        fx[k] = RegFacts{.dead = true};
        ++dead;
        continue;
      }
      flags = ((flags & ~fx[k].def) | fx[k].use) & kFlags;
    }
    if (dead != 0) removed += live.compact(b);
  }
  return removed;
}

// --- redundant load forwarding ---------------------------------------------
//
// Within a block: a second load of the same memory operand into the same
// register, with no intervening store/call and no write to the address
// registers or the destination, is removed; into a different register it
// becomes a register move.

struct LoadKey {
  Mnemonic mn;
  uint8_t width;
  isa::MemOperand mem;

  bool operator==(const LoadKey& other) const {
    return mn == other.mn && width == other.width &&
           mem.base == other.mem.base && mem.index == other.mem.index &&
           mem.scale == other.mem.scale && mem.disp == other.mem.disp &&
           mem.poolSlot == other.mem.poolSlot &&
           mem.ripTarget == other.mem.ripTarget &&
           mem.ripRelative == other.mem.ripRelative;
  }
};

bool isPlainLoad(const Instruction& in) {
  if (in.nops != 2 || !in.ops[0].isReg() || !in.ops[1].isMem()) return false;
  switch (in.mnemonic) {
    case Mnemonic::Mov:
      return in.width >= 4;  // partial loads merge, not worth forwarding
    case Mnemonic::Movsd:
    case Mnemonic::Movss:
    case Mnemonic::Movapd:
    case Mnemonic::Movupd:
    case Mnemonic::Movaps:
    case Mnemonic::Movups:
    case Mnemonic::Movdqa:
    case Mnemonic::Movdqu:
      return true;
    default:
      return false;
  }
}

Mnemonic regMoveFor(Mnemonic loadMn) {
  switch (loadMn) {
    case Mnemonic::Mov: return Mnemonic::Mov;
    // movsd/movss reg-reg merge instead of replacing the full register, so
    // a full-register copy is used.
    case Mnemonic::Movsd: case Mnemonic::Movss: return Mnemonic::Movapd;
    case Mnemonic::Movupd: return Mnemonic::Movapd;
    case Mnemonic::Movups: return Mnemonic::Movaps;
    case Mnemonic::Movdqu: return Mnemonic::Movdqa;
    default: return loadMn;
  }
}

size_t runRedundantLoads(Liveness& live) {
  ir::CapturedFunction& fn = live.fn();
  size_t forwarded = 0;
  // Flat fact table, reused across blocks (and across rewrites): a block
  // carries a handful of loads at most, so a linear scan beats a
  // node-allocating tree map.
  static thread_local std::vector<std::pair<LoadKey, isa::Reg>> available;
  for (int b = 0; b < fn.blockCount(); ++b) {
    ir::InstrVec& v = fn.block(b).instrs;
    const std::span<RegFacts> fx = live.facts(b);
    available.clear();
    size_t neutralized = 0;
    for (size_t k = 0; k < v.size(); ++k) {
      const Instruction& in = v[k];
      bool insertFact = false;
      LoadKey key{};
      if (isPlainLoad(in)) {
        // movsd/movss loads zero the rest of the register, so forwarding
        // from a register with live upper bits would differ — but the
        // previous load zeroed them too, so same-key forwarding is exact.
        key = LoadKey{in.mnemonic, in.width, in.ops[1].mem};
        auto it = std::find_if(
            available.begin(), available.end(),
            [&](const auto& fact) { return fact.first == key; });
        if (it != available.end()) {
          if (it->second == in.ops[0].reg) {
            fx[k] = RegFacts{.dead = true};
            ++forwarded;
            ++neutralized;
            continue;
          }
          live.replace(
              b, k,
              isa::makeInstr(regMoveFor(in.mnemonic),
                             isa::isXmm(in.ops[0].reg) ? 16 : 8,
                             Operand::makeReg(in.ops[0].reg),
                             Operand::makeReg(it->second)));
          ++forwarded;
        }
        // Record (after the kill scan below — the load overwrites its own
        // destination, which must not erase the fresh fact).
        insertFact = true;
      }

      // Invalidate facts the instruction kills.
      const uint32_t written = fx[k].wr;
      const bool storesMem = isa::writesMemory(in);
      for (size_t i = 0; i < available.size();) {
        const LoadKey& lk = available[i].first;
        const uint32_t addrRegs =
            isa::regBit(lk.mem.base) | isa::regBit(lk.mem.index);
        const bool poolRef = lk.mem.poolSlot >= 0;
        const bool killed =
            (written & (addrRegs | isa::regBit(available[i].second))) != 0 ||
            (storesMem && !poolRef);  // pool constants are immutable
        if (killed) {
          available[i] = available.back();
          available.pop_back();
        } else {
          ++i;
        }
      }
      if (insertFact) {
        auto it = std::find_if(
            available.begin(), available.end(),
            [&](const auto& fact) { return fact.first == key; });
        if (it != available.end())
          it->second = in.ops[0].reg;
        else
          available.emplace_back(key, in.ops[0].reg);
      }
    }
    if (neutralized != 0) live.compact(b);
  }
  return forwarded;
}

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
  if (!options.peephole && !options.deadFlagWriters &&
      !options.redundantLoads && !options.crossIterLoads)
    return;
  Liveness live(fn);
  size_t peephole = 0;
  if (options.peephole) peephole += runPeephole(live);
  if (options.deadFlagWriters)
    counter(CounterId::PassDeadFlagsRemoved).add(runDeadFlagWriters(live));
  if (options.redundantLoads)
    counter(CounterId::PassLoadsForwarded).add(runRedundantLoads(live));
  // Cross-iteration load elimination runs after load dedup, so it sees the
  // canonical scalar stream, and before the final peephole, which mops up
  // the moves it leaves behind.
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
  if (options.peephole) peephole += runPeephole(live);  // cleanups expose more
  counter(CounterId::PassPeepholeRemoved).add(peephole);
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
