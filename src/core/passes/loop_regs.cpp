// Register liveness and the two loop rules it drives (§IV, §V-B).
//
// A width-keyed stencil sweep keeps its cell loop. Inside it the tracer's
// capture carries two full-register copies per cell (the accumulator seeded
// from the chain temporary, and copied back out for the store) and the
// cross-iteration pass's per-block reload of the shared coefficient. Both
// are fixed here with whole-register liveness of the XMM registers (the
// rules move nothing else, so GPRs are not tracked):
//
//  - a register counts as defined only when it is written whole
//    (fullXmmOverwrite); any other write is also a use. Calls use every
//    register and define none. A `ret` uses CapturedFunction::liveAtRet();
//    Stop, SideExit and unterminated blocks use everything.
//  - copies and pool loads move only when every reference to the registers
//    involved is an explicit operand (no call between).
//
// Each transformation leaves every block's live-in and live-out sets as
// they were, so the block-level fixpoint is computed once; only the
// per-instruction liveness of the block being edited is refreshed.
#include "core/passes/loop_regs.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/passes/cross_iter.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"

namespace brew {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;

constexpr uint32_t kXmmRegs = 0xffff0000u;

// XMM register effects of one instruction, computed once per rewrite.
struct RegEffects {
  uint32_t use = 0;   // read; a partial write reads the rest of the register
  uint32_t def = 0;   // written whole
  uint32_t wr = 0;    // written at all (isa::regsWritten)
  uint32_t imp = 0;   // referenced by no explicit operand
  bool dead = false;  // removed; compacted away at the end
};

RegEffects effectsOf(const Instruction& in) {
  RegEffects fx;
  if (in.mnemonic == Mnemonic::Call || in.mnemonic == Mnemonic::CallInd) {
    fx.use = fx.wr = fx.imp = kXmmRegs;
    return fx;
  }
  uint32_t explicitXmm = 0;
  for (unsigned i = 0; i < in.nops; ++i)
    if (in.ops[i].isReg()) explicitXmm |= isa::regBit(in.ops[i].reg);
  explicitXmm &= kXmmRegs;
  if (explicitXmm == 0) return fx;  // only calls touch XMM implicitly
  const uint32_t read = isa::regsRead(in) & kXmmRegs;
  fx.wr = isa::regsWritten(in) & kXmmRegs;
  fx.imp = (read | fx.wr) & ~explicitXmm;
  if (in.ops[0].isReg() && fullXmmOverwrite(in, in.ops[0].reg))
    fx.def = fx.wr & isa::regBit(in.ops[0].reg);
  fx.use = read | (fx.wr & ~fx.def);
  return fx;
}

bool isXmmCopy(const Instruction& in) {
  return (in.mnemonic == Mnemonic::Movapd ||
          in.mnemonic == Mnemonic::Movaps) &&
         in.nops == 2 && in.ops[0].isReg() && in.ops[1].isReg() &&
         isa::isXmm(in.ops[0].reg) && isa::isXmm(in.ops[1].reg) &&
         in.ops[0].reg != in.ops[1].reg;
}

bool isPoolLoad(const Instruction& in) {
  return in.nops == 2 && in.ops[0].isReg() && in.ops[1].isMem() &&
         in.ops[1].mem.poolSlot >= 0 && fullXmmOverwrite(in, in.ops[0].reg);
}

// Successor `i` (0 = taken, 1 = fall) of a terminator, -1 if none.
int successor(const ir::Terminator& t, int i) {
  if (i == 0 && (t.kind == ir::Terminator::Kind::Jmp ||
                 t.kind == ir::Terminator::Kind::CondJmp))
    return t.taken;
  if (i == 1 && t.kind == ir::Terminator::Kind::CondJmp) return t.fall;
  return -1;
}

struct Scratch {
  std::vector<uint8_t> state;  // DFS: 0 unseen, 1 on the stack, 2 done
  std::vector<std::pair<int, int>> stack;  // (block, next successor)
  std::vector<int> post;       // reachable blocks in DFS postorder
  std::vector<int> first;      // block -> index of its first RegEffects
  std::vector<RegEffects> fx;
  std::vector<uint32_t> gen, kill, liveIn;
  std::vector<uint32_t> after;  // per instruction of one block: live after
  std::vector<size_t> reads;
  std::vector<uint8_t> edited;  // block has removals to compact
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

// Reachable blocks in DFS postorder; true when some edge closes a cycle.
bool postorder(const ir::CapturedFunction& fn, Scratch& s) {
  s.state.assign(static_cast<size_t>(fn.blockCount()), 0);
  s.post.clear();
  s.stack.clear();
  bool cyclic = false;
  s.stack.emplace_back(fn.entry(), 0);
  s.state[static_cast<size_t>(fn.entry())] = 1;
  while (!s.stack.empty()) {
    const int b = s.stack.back().first;
    const int i = s.stack.back().second++;
    if (i > 1) {
      s.state[static_cast<size_t>(b)] = 2;
      s.post.push_back(b);
      s.stack.pop_back();
      continue;
    }
    const int succ = successor(fn.block(b).term, i);
    if (succ < 0) continue;
    const uint8_t st = s.state[static_cast<size_t>(succ)];
    if (st == 1) cyclic = true;
    if (st != 0) continue;
    s.state[static_cast<size_t>(succ)] = 1;
    s.stack.emplace_back(succ, 0);
  }
  return cyclic;
}

class LoopRegisters {
 public:
  LoopRegisters(ir::CapturedFunction& fn, Scratch& s) : fn_(fn), s_(s) {}

  // Effects of every reachable instruction, then the block fixpoint.
  void analyze() {
    const size_t n = static_cast<size_t>(fn_.blockCount());
    s_.first.assign(n, 0);
    s_.fx.clear();
    s_.gen.assign(n, 0);
    s_.kill.assign(n, 0);
    s_.liveIn.assign(n, 0);
    s_.edited.assign(n, 0);
    for (const int b : s_.post) {
      s_.first[static_cast<size_t>(b)] = s_.fx.size();
      uint32_t gen = 0, kill = 0;
      const ir::InstrVec& v = fn_.block(b).instrs;
      const size_t base = s_.fx.size();
      for (const Instruction& in : v) s_.fx.push_back(effectsOf(in));
      for (size_t k = v.size(); k-- > 0;) {
        const RegEffects& f = s_.fx[base + k];
        gen = (gen & ~f.def) | f.use;
        kill |= f.def;
      }
      s_.gen[static_cast<size_t>(b)] = gen;
      s_.kill[static_cast<size_t>(b)] = kill;
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const int b : s_.post) {
        const uint32_t in = s_.gen[static_cast<size_t>(b)] |
                            (liveOut(b) & ~s_.kill[static_cast<size_t>(b)]);
        if (in != s_.liveIn[static_cast<size_t>(b)]) {
          s_.liveIn[static_cast<size_t>(b)] = in;
          changed = true;
        }
      }
    }
  }

  size_t coalesce() {
    size_t removed = 0;
    for (const int b : s_.post) {
      ir::InstrVec& v = fn_.block(b).instrs;
      bool any = false;
      for (const Instruction& in : v) any = any || isXmmCopy(in);
      if (!any) continue;
      refreshAfter(b);
      for (size_t i = 0; i < v.size(); ++i) {
        if (fx(b, i).dead || !isXmmCopy(v[i])) continue;
        if (!forward(b, i) && !backward(b, i)) continue;
        remove(b, i);
        ++removed;
        refreshAfter(b);
      }
    }
    return removed;
  }

  // Hoists every qualifying register; returns how many. A call writes
  // every XMM register, so a register live across one never qualifies.
  size_t hoist() {
    struct Candidate {
      const Instruction* load = nullptr;
      size_t count = 0;
      bool bad = false;
    };
    Candidate cand[16];
    for (const int b : s_.post) {
      const ir::InstrVec& v = fn_.block(b).instrs;
      for (size_t k = 0; k < v.size(); ++k) {
        const RegEffects& f = fx(b, k);
        for (uint32_t w = f.wr; w != 0; w &= w - 1) {
          Candidate& c = cand[__builtin_ctz(w) - 16];
          const Instruction& in = v[k];
          if (!isPoolLoad(in)) {
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
    const uint32_t entryLive = s_.liveIn[static_cast<size_t>(fn_.entry())];
    uint32_t hoisted = 0;
    for (unsigned r = 0; r < 16; ++r) {
      const Candidate& c = cand[r];
      const uint32_t bit = 1u << (16 + r);
      if (!c.bad && c.count >= 2 && (entryLive & bit) == 0) hoisted |= bit;
    }
    if (hoisted == 0) return 0;
    std::vector<Instruction> loads;
    for (uint32_t h = hoisted; h != 0; h &= h - 1)
      loads.push_back(*cand[__builtin_ctz(h) - 16].load);
    for (const int b : s_.post) {
      const ir::InstrVec& v = fn_.block(b).instrs;
      for (size_t k = 0; k < v.size(); ++k)
        if ((fx(b, k).wr & hoisted) != 0) remove(b, k);
    }
    compact();
    ir::InstrVec& entry = fn_.block(fn_.entry()).instrs;
    entry.insert(entry.begin(), loads.begin(), loads.end());
    return loads.size();
  }

  // Drops the instructions removed above.
  void compact() {
    for (const int b : s_.post) {
      if (s_.edited[static_cast<size_t>(b)] == 0) continue;
      s_.edited[static_cast<size_t>(b)] = 0;
      ir::InstrVec& v = fn_.block(b).instrs;
      size_t w = 0;
      for (size_t k = 0; k < v.size(); ++k) {
        if (fx(b, k).dead) continue;
        if (w != k) {
          v[w] = v[k];
          fx(b, w) = fx(b, k);
        }
        ++w;
      }
      v.resize(w);
    }
  }

 private:
  RegEffects& fx(int b, size_t k) {
    return s_.fx[s_.first[static_cast<size_t>(b)] + k];
  }

  uint32_t liveOut(int b) const {
    const ir::Terminator& t = fn_.block(b).term;
    switch (t.kind) {
      case ir::Terminator::Kind::Ret:
        return fn_.liveAtRet() & kXmmRegs;
      case ir::Terminator::Kind::Jmp:
        return liveInOf(t.taken);
      case ir::Terminator::Kind::CondJmp:
        return liveInOf(t.taken) | liveInOf(t.fall);
      default:
        return kXmmRegs;  // control leaves for code that may read anything
    }
  }

  uint32_t liveInOf(int b) const {
    return b < 0 ? kXmmRegs : s_.liveIn[static_cast<size_t>(b)];
  }

  void refreshAfter(int b) {
    const size_t n = fn_.block(b).instrs.size();
    s_.after.resize(n);
    uint32_t live = liveOut(b);
    for (size_t k = n; k-- > 0;) {
      s_.after[k] = live;
      const RegEffects& f = fx(b, k);
      live = (live & ~f.def) | f.use;
    }
  }

  void remove(int b, size_t k) {
    fx(b, k) = RegEffects{.dead = true};
    s_.edited[static_cast<size_t>(b)] = 1;
  }

  // `movapd dst, src` at i: read src instead of dst up to where dst dies.
  // Neither register may change before dst's last read, and dst must die
  // inside the block.
  bool forward(int b, size_t i) {
    ir::InstrVec& v = fn_.block(b).instrs;
    const Reg dst = v[i].ops[0].reg, src = v[i].ops[1].reg;
    const uint32_t dB = isa::regBit(dst), sB = isa::regBit(src);
    bool srcWritten = false;
    s_.reads.clear();
    size_t k = i + 1;
    for (; k < v.size() && (s_.after[k - 1] & dB) != 0; ++k) {
      const RegEffects& f = fx(b, k);
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
      RegEffects& f = fx(b, r);
      f.use = (f.use & ~dB) | sB;
    }
    return true;
  }

  // `movapd dst, src` at i with src dead after it: exchange the two names
  // back to the point where both are dead, so the value is computed in dst
  // directly.
  bool backward(int b, size_t i) {
    ir::InstrVec& v = fn_.block(b).instrs;
    const Reg dst = v[i].ops[0].reg, src = v[i].ops[1].reg;
    const uint32_t dB = isa::regBit(dst), sB = isa::regBit(src);
    const uint32_t both = dB | sB;
    if ((s_.after[i] & sB) != 0) return false;
    uint32_t live = (s_.after[i] & ~fx(b, i).def) | fx(b, i).use;
    size_t p = i;
    while ((live & both) != 0) {
      if (p == 0) return false;  // live into the block
      const RegEffects& f = fx(b, --p);
      if ((f.imp & both) != 0) return false;
      live = (live & ~f.def) | f.use;
    }
    auto swapBits = [&](uint32_t m) {
      const uint32_t out = m & ~both;
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
      RegEffects& f = fx(b, k);
      f.use = swapBits(f.use);
      f.def = swapBits(f.def);
      f.wr = swapBits(f.wr);
    }
    return true;
  }

  ir::CapturedFunction& fn_;
  Scratch& s_;
};

}  // namespace

LoopRegisterStats runLoopRegisterRules(ir::CapturedFunction& fn,
                                       bool coalesce, bool hoist) {
  LoopRegisterStats stats;
  if (fn.blockCount() == 0 || (!coalesce && !hoist)) return stats;
  Scratch& s = scratch();
  if (!postorder(fn, s)) return stats;
  stats.cyclic = true;
  LoopRegisters regs(fn, s);
  regs.analyze();
  if (coalesce) stats.copiesCoalesced = regs.coalesce();
  if (hoist) stats.constsHoisted = regs.hoist();
  regs.compact();
  return stats;
}

}  // namespace brew
