// Optimization passes over captured code (§IV).
//
// The rewriter's input is already compiler-optimized, so these passes only
// clean up artifacts of tracing itself: materializations that turned out
// redundant, compares whose branches were resolved, and loads duplicated by
// unrolling. They run on the block CFG before emission.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/passes/cross_iter.hpp"
#include "core/passes/loop_regs.hpp"
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

bool isPureFlagWriter(const Instruction& in) {
  switch (in.mnemonic) {
    case Mnemonic::Cmp:
    case Mnemonic::Test:
    case Mnemonic::Ucomisd:
    case Mnemonic::Comisd:
    case Mnemonic::Ucomiss:
    case Mnemonic::Comiss:
      return true;
    default:
      return false;
  }
}

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

size_t runPeephole(ir::CapturedFunction& fn) {
  size_t removed = 0;
  for (ir::Block& block : fn.blocks()) {
    // In-place compaction: the common block has nothing to remove and is
    // left untouched (no reallocation, no copy).
    ir::InstrVec& v = block.instrs;
    size_t w = 0;
    for (size_t r = 0; r < v.size(); ++r) {
      if (isNoopMove(v[r]) || isNoopLea(v[r])) {
        ++removed;
        continue;
      }
      if (w != r) v[w] = v[r];
      ++w;
    }
    v.resize(w);
  }
  return removed;
}

// --- final peephole: return-copy coalescing ---------------------------------
//
// The accumulator usually lives in another register and is copied into
// xmm0 right before the ret. Exchanging the two register names in every
// operand before the copy computes the accumulator in xmm0 directly and
// drops the copy (a plain rename when xmm0 is otherwise unused). Sound when
// neither register is live-in (each is first referenced by a full
// overwrite) and no call uses either implicitly. The copy's source then
// ends with another value at the ret, which the passes' scalar-return
// assumption allows: only xmm0's low lane is observed.

size_t coalesceRetMoves(ir::CapturedFunction& fn) {
  size_t coalesced = 0;
  for (ir::Block& block : fn.blocks()) {
    if (block.term.kind != ir::Terminator::Kind::Ret) continue;
    if (block.instrs.empty()) continue;
    const Instruction& last = block.instrs.back();
    if ((last.mnemonic != Mnemonic::Movapd &&
         last.mnemonic != Mnemonic::Movaps) ||
        last.nops != 2 || !last.ops[0].isReg() || !last.ops[1].isReg())
      continue;
    const Reg dst = last.ops[0].reg;
    const Reg src = last.ops[1].reg;
    if (dst != isa::abi::kSseReturn || src == dst || !isa::isXmm(src))
      continue;

    const size_t lastIdx = block.instrs.size() - 1;
    uint32_t seen = 0;  // registers already referenced
    bool ok = true;
    for (size_t k = 0; k < lastIdx && ok; ++k) {
      const Instruction& in = block.instrs[k];
      if (in.mnemonic == Mnemonic::Call || in.mnemonic == Mnemonic::CallInd)
        ok = false;  // implicit XMM uses
      const uint32_t reads = isa::regsRead(in);
      const uint32_t fresh = (reads | isa::regsWritten(in)) & ~seen;
      for (const Reg r : {dst, src}) {
        const uint32_t bit = isa::regBit(r);
        if (!(fresh & bit)) continue;
        // The first reference must define r entirely: r is not live-in.
        if (!fullXmmOverwrite(in, r) || (reads & bit)) ok = false;
        seen |= bit;
      }
    }
    if (!ok || !(seen & isa::regBit(src))) continue;

    for (size_t k = 0; k < lastIdx; ++k) {
      Instruction& in = block.instrs[k];
      for (unsigned o = 0; o < in.nops; ++o) {
        if (!in.ops[o].isReg()) continue;
        if (in.ops[o].reg == src)
          in.ops[o].reg = dst;
        else if (in.ops[o].reg == dst)
          in.ops[o].reg = src;
      }
    }
    block.instrs.pop_back();
    ++coalesced;
  }
  return coalesced;
}

// --- dead pure flag writers -----------------------------------------------
//
// Single-bit backward liveness of "the flags" across the CFG; a pure flag
// writer whose result is overwritten before any consumer is removed.
// Consumers: adc/sbb/cmovcc/setcc/jcc instructions and CondJmp terminators;
// calls and rets are treated as consumers conservatively (the flags are dead
// across them per the ABI, but injected code may pushfq).

size_t runDeadFlagWriters(ir::CapturedFunction& fn) {
  const int n = fn.blockCount();
  // Thread-local scratch: the passes run on every compile, so the vectors
  // keep their steady-state capacity instead of reallocating per rewrite.
  static thread_local std::vector<uint8_t> liveIn, liveOut;
  liveIn.assign(static_cast<size_t>(n), 0);
  liveOut.assign(static_cast<size_t>(n), 0);

  auto blockLiveIn = [&](const ir::Block& block, bool out) {
    // Backward scan: does a consumer appear before the first full writer?
    bool live = out;
    // A SideExit resumes original code that may read the flags (the
    // branch that exceeded the fork-depth cap re-executes there).
    if (block.term.kind == ir::Terminator::Kind::CondJmp ||
        block.term.kind == ir::Terminator::Kind::SideExit)
      live = true;
    for (auto it = block.instrs.rbegin(); it != block.instrs.rend(); ++it) {
      if (isa::flagsRead(*it) != 0 || it->mnemonic == Mnemonic::Pushfq ||
          it->mnemonic == Mnemonic::CallInd ||
          it->mnemonic == Mnemonic::Call) {
        live = true;
      } else if (isa::flagsWritten(*it) == isa::kAllFlags) {
        live = false;
      }
    }
    return live;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      const ir::Block& block = fn.block(i);
      uint8_t out = 0;
      if (block.term.kind == ir::Terminator::Kind::Jmp)
        out = liveIn[static_cast<size_t>(block.term.taken)];
      if (block.term.kind == ir::Terminator::Kind::CondJmp ||
          block.term.kind == ir::Terminator::Kind::SideExit)
        out = 1;  // terminator itself consumes
      if (out != liveOut[static_cast<size_t>(i)]) {
        liveOut[static_cast<size_t>(i)] = out;
        changed = true;
      }
      const uint8_t in = blockLiveIn(block, out != 0) ? 1 : 0;
      if (in != liveIn[static_cast<size_t>(i)]) {
        liveIn[static_cast<size_t>(i)] = in;
        changed = true;
      }
    }
  }

  size_t removed = 0;
  // Indices to drop, shared scratch across blocks (and across rewrites).
  static thread_local std::vector<size_t> dead;
  for (int i = 0; i < n; ++i) {
    ir::Block& block = fn.block(i);
    bool live = liveOut[static_cast<size_t>(i)] != 0;
    if (block.term.kind == ir::Terminator::Kind::CondJmp ||
        block.term.kind == ir::Terminator::Kind::SideExit)
      live = true;
    dead.clear();
    for (size_t k = block.instrs.size(); k-- > 0;) {
      const Instruction& in = block.instrs[k];
      if (isa::flagsRead(in) != 0 || in.mnemonic == Mnemonic::Pushfq ||
          in.mnemonic == Mnemonic::Call || in.mnemonic == Mnemonic::CallInd) {
        live = true;
      } else if (isPureFlagWriter(in)) {
        if (!live && !hasMemOperand(in)) {
          // Memory-operand compares are kept so that an injected onLoad
          // handler still sees every captured load. Register-only compares
          // always go.
          dead.push_back(k);
          ++removed;
          continue;
        }
        live = false;
      } else if (isa::flagsWritten(in) == isa::kAllFlags) {
        live = false;
      }
    }
    if (!dead.empty()) {
      // `dead` is in descending index order; compact in place.
      ir::InstrVec& v = block.instrs;
      size_t w = 0;
      auto next = dead.rbegin();
      for (size_t k = 0; k < v.size(); ++k) {
        if (next != dead.rend() && *next == k) {
          ++next;
          continue;
        }
        if (w != k) v[w] = v[k];
        ++w;
      }
      v.resize(w);
    }
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

size_t runRedundantLoads(ir::CapturedFunction& fn) {
  size_t forwarded = 0;
  // Flat fact table, reused across blocks (and across rewrites): a block
  // carries a handful of loads at most, so a linear scan beats a
  // node-allocating tree map.
  static thread_local std::vector<std::pair<LoadKey, isa::Reg>> available;
  for (ir::Block& block : fn.blocks()) {
    available.clear();
    size_t neutralized = 0;
    for (Instruction& in : block.instrs) {
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
            in.mnemonic = Mnemonic::Nop;
            in.nops = 0;
            ++forwarded;
            ++neutralized;
            continue;
          }
          const Instruction replacement = isa::makeInstr(
              regMoveFor(in.mnemonic), isa::isXmm(in.ops[0].reg) ? 16 : 8,
              Operand::makeReg(in.ops[0].reg), Operand::makeReg(it->second));
          in = replacement;
          ++forwarded;
        }
        // Record (after the kill scan below — the load overwrites its own
        // destination, which must not erase the fresh fact).
        insertFact = true;
      }

      // Invalidate facts the instruction kills.
      const uint32_t written = isa::regsWritten(in);
      const bool storesMem = isa::writesMemory(in) ||
                             in.mnemonic == Mnemonic::Call ||
                             in.mnemonic == Mnemonic::CallInd ||
                             in.mnemonic == Mnemonic::Push ||
                             in.mnemonic == Mnemonic::Pushfq;
      for (size_t i = 0; i < available.size();) {
        const LoadKey& k = available[i].first;
        const uint32_t addrRegs =
            (k.mem.base != isa::Reg::none ? isa::regBit(k.mem.base) : 0u) |
            (k.mem.index != isa::Reg::none ? isa::regBit(k.mem.index) : 0u);
        const bool poolRef = k.mem.poolSlot >= 0;
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
    // Drop instructions neutralized above (in place; untouched blocks are
    // left alone).
    if (neutralized != 0) {
      ir::InstrVec& v = block.instrs;
      size_t w = 0;
      for (size_t k = 0; k < v.size(); ++k) {
        if (v[k].mnemonic == Mnemonic::Nop && v[k].nops == 0 &&
            v[k].length == 0 && v[k].address == 0)
          continue;
        if (w != k) v[w] = v[k];
        ++w;
      }
      v.resize(w);
    }
  }
  return forwarded;
}

// --- block merging ----------------------------------------------------------
//
// A block reached only by a single unconditional-jump predecessor is
// appended to it. The emptied block becomes unreachable; the emitter's
// layout prunes unreachable blocks, so no stub code is generated.

size_t runMergeBlocks(ir::CapturedFunction& fn) {
  const int n = fn.blockCount();
  static thread_local std::vector<int> predCount, soleJmpPred;
  predCount.assign(static_cast<size_t>(n), 0);
  soleJmpPred.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const ir::Terminator& t = fn.block(i).term;
    auto note = [&](int succ, bool viaJmp) {
      if (succ < 0) return;
      ++predCount[static_cast<size_t>(succ)];
      soleJmpPred[static_cast<size_t>(succ)] = viaJmp ? i : -1;
    };
    switch (t.kind) {
      case ir::Terminator::Kind::Jmp:
        note(t.taken, true);
        break;
      case ir::Terminator::Kind::CondJmp:
        note(t.taken, false);
        note(t.fall, false);
        break;
      default:
        break;
    }
  }

  size_t merged = 0;
  for (int b = 0; b < n; ++b) {
    if (b == fn.entry()) continue;
    if (predCount[static_cast<size_t>(b)] != 1) continue;
    const int pred = soleJmpPred[static_cast<size_t>(b)];
    if (pred < 0 || pred == b) continue;
    ir::Block& from = fn.block(b);
    ir::Block& into = fn.block(pred);
    if (into.term.kind != ir::Terminator::Kind::Jmp || into.term.taken != b)
      continue;
    into.instrs.insert(into.instrs.end(), from.instrs.begin(),
                       from.instrs.end());
    into.term = from.term;
    from.instrs.clear();
    from.term = ir::Terminator{};  // unreachable; pruned at layout
    from.term.kind = ir::Terminator::Kind::Ret;
    ++merged;
    // Chains (A->B->C) resolve over the fixpoint loop in runPasses.
  }
  return merged;
}

}  // namespace

void runPasses(ir::CapturedFunction& fn, const PassOptions& options) {
  using telemetry::counter;
  using telemetry::CounterId;
  size_t merged = 0, peephole = 0;
  if (options.mergeBlocks)
    for (size_t n = 0; (n = runMergeBlocks(fn)) != 0;) merged += n;
  if (options.peephole) peephole += runPeephole(fn);
  if (options.deadFlagWriters)
    counter(CounterId::PassDeadFlagsRemoved).add(runDeadFlagWriters(fn));
  if (options.redundantLoads)
    counter(CounterId::PassLoadsForwarded).add(runRedundantLoads(fn));
  // Cross-iteration load elimination runs after load dedup, so it sees the
  // canonical scalar stream, and before the final peephole, which mops up
  // the moves it leaves behind.
  if (options.crossIterLoads) {
    const uint64_t v0 = telemetry::nowNs();
    counter(CounterId::PassLoadsEliminated).add(runCrossIterLoads(fn));
    const uint64_t v1 = telemetry::nowNs();
    telemetry::histogram(telemetry::HistogramId::PhaseVectorizeNs)
        .record(v1 - v0);
    if (telemetry::tracingEnabled()) telemetry::recordSpan("vectorize", v0, v1);
  }
  if (options.peephole) peephole += runPeephole(fn);  // cleanups expose more
  // Loop functions get register liveness: copy coalescing rides on the
  // peephole switch, constant hoisting on the cross-iteration one. The
  // trailing return-copy swap covers loop-free functions.
  const LoopRegisterStats loop =
      runLoopRegisterRules(fn, options.peephole, options.crossIterLoads);
  if (options.peephole && !loop.cyclic) peephole += coalesceRetMoves(fn);
  counter(CounterId::PassCopiesCoalesced).add(loop.copiesCoalesced);
  counter(CounterId::PassConstsHoisted).add(loop.constsHoisted);
  counter(CounterId::PassBlocksMerged).add(merged);
  counter(CounterId::PassPeepholeRemoved).add(peephole);
}

}  // namespace brew
