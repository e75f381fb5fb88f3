// The XMM register rules (§IV, §V-B).
//
// A width-keyed stencil sweep keeps its cell loop. Inside it the tracer's
// capture carries two full-register copies per cell (the accumulator seeded
// from the chain temporary, and copied back out for the store) and the
// cross-iteration pass's per-block reload of the shared coefficient; a
// straight-line kernel copies its accumulator into xmm0 before the `ret`.
// The rules remove these on the shared liveness (passes.hpp). Copies and
// pool loads move only when every reference to the registers involved is
// an explicit operand (no call between).
//
// Each transformation leaves every block's live-in and live-out sets as
// they were, so the block-level fixpoint is solved once; only the
// per-instruction liveness of the block being edited is refreshed.
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/passes/passes.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"

namespace brew {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;

bool isXmmCopy(const Instruction& in) {
  return (in.mnemonic == Mnemonic::Movapd ||
          in.mnemonic == Mnemonic::Movaps) &&
         in.nops == 2 && in.ops[0].isReg() && in.ops[1].isReg() &&
         isa::isXmm(in.ops[0].reg) && isa::isXmm(in.ops[1].reg) &&
         in.ops[0].reg != in.ops[1].reg;
}

struct Scratch {
  std::vector<RegSet> after;  // per instruction of one block: live after
  std::vector<size_t> reads;
  std::vector<RegFacts> entryFx;
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

class RegisterRules {
 public:
  RegisterRules(Liveness& live, Scratch& s)
      : live_(live), fn_(live.fn()), s_(s) {}

  size_t coalesce() {
    size_t removed = 0;
    for (int b = 0; b < fn_.blockCount(); ++b) {
      ir::InstrVec& v = fn_.block(b).instrs;
      bool any = false;
      for (const Instruction& in : v) any = any || isXmmCopy(in);
      if (!any) continue;
      const std::span<RegFacts> fx = live_.facts(b);
      bool stale = true;  // s_.after must be recomputed before use
      for (size_t i = 0; i < v.size(); ++i) {
        if (fx[i].dead || !isXmmCopy(v[i])) continue;
        if (stale) refreshAfter(b);
        stale = false;
        if (!forward(b, i) && !backward(b, i)) continue;
        fx[i] = RegFacts{.dead = true};
        ++removed;
        stale = true;
      }
      live_.compact(b);
    }
    return removed;
  }

  // Hoists every qualifying register; returns their mask. A call writes
  // every XMM register, so a register live across one never qualifies.
  RegSet hoist() {
    struct Candidate {
      const Instruction* load = nullptr;
      size_t count = 0;
      bool bad = false;
    };
    Candidate cand[16];
    for (int b = 0; b < fn_.blockCount(); ++b) {
      const ir::InstrVec& v = fn_.block(b).instrs;
      const std::span<const RegFacts> fx = live_.facts(b);
      for (size_t k = 0; k < v.size(); ++k) {
        for (uint32_t w = fx[k].wr & kXmmRegs; w != 0; w &= w - 1) {
          Candidate& c = cand[__builtin_ctz(w) - 16];
          const Instruction& in = v[k];
          const bool poolLoad = in.nops == 2 && in.ops[0].isReg() &&
                                in.ops[1].isMem() &&
                                in.ops[1].mem.poolSlot >= 0 &&
                                (fx[k].def & isa::regBit(in.ops[0].reg)) != 0;
          if (!poolLoad) {
            c.bad = true;
          } else if (c.load == nullptr) {
            c.load = &in;
          } else if (in.mnemonic != c.load->mnemonic ||
                     in.width != c.load->width ||
                     in.ops[1].mem.poolSlot != c.load->ops[1].mem.poolSlot) {
            c.bad = true;
          }
          ++c.count;
        }
      }
    }
    const RegSet entryLive = live_.liveIn(fn_.entry());
    uint32_t hoisted = 0;
    for (unsigned r = 0; r < 16; ++r) {
      const Candidate& c = cand[r];
      const uint32_t bit = 1u << (16 + r);
      if (!c.bad && c.count >= 2 && (entryLive & bit) == 0) hoisted |= bit;
    }
    if (hoisted == 0) return 0;
    // The entry block is rebuilt with the loads in front.
    ir::InstrVec entry(fn_.instrAllocator());
    std::vector<RegFacts>& entryFx = s_.entryFx;
    entryFx.clear();
    for (uint32_t h = hoisted; h != 0; h &= h - 1) {
      entry.push_back(*cand[__builtin_ctz(h) - 16].load);
      entryFx.push_back(factsOf(entry.back()));
    }
    for (int b = 0; b < fn_.blockCount(); ++b) {
      bool any = false;
      for (RegFacts& f : live_.facts(b)) {
        if ((f.wr & hoisted) == 0) continue;
        f = RegFacts{.dead = true};
        any = true;
      }
      if (any) live_.compact(b);
    }
    const int e = fn_.entry();
    const ir::InstrVec& old = fn_.block(e).instrs;
    entry.insert(entry.end(), old.begin(), old.end());
    const std::span<const RegFacts> oldFx = live_.facts(e);
    entryFx.insert(entryFx.end(), oldFx.begin(), oldFx.end());
    live_.setBlock(e, std::move(entry), entryFx);
    return hoisted;
  }

 private:
  void refreshAfter(int b) {
    const std::span<const RegFacts> fx = live_.facts(b);
    s_.after.resize(fx.size());
    RegSet live = live_.liveOut(b);
    for (size_t k = fx.size(); k-- > 0;) {
      s_.after[k] = live;
      live = (live & ~fx[k].def) | fx[k].use;
    }
  }

  // `movapd dst, src` at i: read src instead of dst up to where dst dies.
  // Neither register may change before dst's last read, and dst must die
  // inside the block.
  bool forward(int b, size_t i) {
    ir::InstrVec& v = fn_.block(b).instrs;
    const std::span<RegFacts> fx = live_.facts(b);
    const Reg dst = v[i].ops[0].reg, src = v[i].ops[1].reg;
    const uint32_t dB = isa::regBit(dst), sB = isa::regBit(src);
    bool srcWritten = false;
    s_.reads.clear();
    size_t k = i + 1;
    for (; k < v.size() && (s_.after[k - 1] & dB) != 0; ++k) {
      const RegFacts& f = fx[k];
      if (((f.use | f.wr) & (dB | sB)) == 0) continue;
      if ((f.imp & (dB | sB)) != 0) return false;
      if ((f.wr & dB) != 0) return false;  // dst partly rewritten, still live
      if ((f.use & dB) != 0) {
        if (srcWritten) return false;
        s_.reads.push_back(k);
      }
      srcWritten = srcWritten || (f.wr & sB) != 0;
    }
    if (k == v.size() && (s_.after[k - 1] & dB) != 0) return false;
    for (const size_t r : s_.reads) {
      for (unsigned o = 0; o < v[r].nops; ++o)
        if (v[r].ops[o].isReg() && v[r].ops[o].reg == dst)
          v[r].ops[o].reg = src;
      fx[r].use = (fx[r].use & ~dB) | sB;
    }
    return true;
  }

  // `movapd dst, src` at i with src dead after it: exchange the two names
  // back to the point where both are dead, so the value is computed in dst
  // directly. This also covers `movapd xmm0, acc; ret`.
  bool backward(int b, size_t i) {
    ir::InstrVec& v = fn_.block(b).instrs;
    const std::span<RegFacts> fx = live_.facts(b);
    const Reg dst = v[i].ops[0].reg, src = v[i].ops[1].reg;
    const uint32_t dB = isa::regBit(dst), sB = isa::regBit(src);
    const uint32_t both = dB | sB;
    if ((s_.after[i] & sB) != 0) return false;
    RegSet live = (s_.after[i] & ~fx[i].def) | fx[i].use;
    size_t p = i;
    while ((live & both) != 0) {
      if (p == 0) return false;  // live into the block
      const RegFacts& f = fx[--p];
      if ((f.imp & both) != 0) return false;
      live = (live & ~f.def) | f.use;
    }
    auto swapBits = [&](RegSet m) {
      const RegSet out = m & ~RegSet{both};
      return out | ((m & dB) != 0 ? sB : 0) | ((m & sB) != 0 ? dB : 0);
    };
    for (size_t k = p; k < i; ++k) {
      for (unsigned o = 0; o < v[k].nops; ++o) {
        if (!v[k].ops[o].isReg()) continue;
        if (v[k].ops[o].reg == src)
          v[k].ops[o].reg = dst;
        else if (v[k].ops[o].reg == dst)
          v[k].ops[o].reg = src;
      }
      RegFacts& f = fx[k];
      f.use = swapBits(f.use);
      f.def = swapBits(f.def);
      f.wr = static_cast<uint32_t>(swapBits(f.wr));
    }
    return true;
  }

  Liveness& live_;
  ir::CapturedFunction& fn_;
  Scratch& s_;
};

}  // namespace

RegisterRuleStats runRegisterRules(Liveness& live, bool coalesce, bool hoist) {
  RegisterRuleStats stats;
  if (live.fn().blockCount() == 0 || (!coalesce && !hoist)) return stats;
  RegisterRules rules(live, scratch());
  if (coalesce) stats.copiesCoalesced = rules.coalesce();
  if (hoist) stats.hoisted = rules.hoist();
  return stats;
}

}  // namespace brew
