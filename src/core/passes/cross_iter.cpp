// Cross-iteration redundant-load elimination (§IV).
//
// Full unrolling leaves the captured stream as long runs of isomorphic
// scalar groups — load / multiply-by-pool-constant / accumulate, repeated
// once per unrolled iteration. runCrossIterLoads keeps a value-numbered
// window of live loaded lanes and turns re-loads of the same location —
// the same pool constant referenced by every unrolled iteration, or a lane
// a previous packed load already brought in — into register reuse.
//
// The pass synthesizes only instructions whose results are bitwise
// identical to the scalar stream on every lane the program can observe;
// lanes that diverge (the high half of a register refilled by a full copy
// instead of a zeroing scalar load) are proven dead through the
// scalar-return ABI before a rewrite is allowed.
#include <algorithm>
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
using isa::Operand;
using isa::Reg;

// After `from`, register r's high 64-bit lane differs from the scalar run.
// True when that lane can never be observed: every later reference reads
// the low lane only, the register is fully overwritten, or the block
// returns (the scalar-return ABI exposes only xmm0's low lane). The one
// full-register copy tolerated is a trailing return-value move, whose
// destination inherits the same unobservability argument.
bool hiLaneUnobserved(const ir::Block& block, std::span<const RegFacts> fx,
                      size_t from, Reg r) {
  const RegSet bit = isa::regBit(r);
  const size_t n = block.instrs.size();
  for (size_t k = from + 1; k < n; ++k) {
    const Instruction& in = block.instrs[k];
    if ((fx[k].def & bit) != 0) return true;
    const bool dst = in.nops >= 1 && in.ops[0].isReg() && in.ops[0].reg == r;
    const bool src = in.nops >= 2 && in.ops[1].isReg() && in.ops[1].reg == r;
    if (!dst && !src) {
      if (((fx[k].use | fx[k].wr) & bit) != 0) return false;  // implicit use
      continue;
    }
    const isa::Family family = isa::row(in.mnemonic).family;
    if (dst && !src && family == isa::Family::SseScalar)
      continue;  // read-modify-write of the low lane; hi preserved, unread
    if (src && !dst) {
      if (family == isa::Family::SseScalar ||
          family == isa::Family::SseCompare)
        continue;  // low-lane source
      if (in.mnemonic == Mnemonic::Movsd || in.mnemonic == Mnemonic::Movss ||
          in.mnemonic == Mnemonic::Movq || in.mnemonic == Mnemonic::Movd)
        continue;  // scalar store / low-lane merge / low-bits extract
      if ((in.mnemonic == Mnemonic::Movapd ||
           in.mnemonic == Mnemonic::Movaps) &&
          k + 1 == n && block.term.kind == ir::Terminator::Kind::Ret)
        continue;  // trailing return-value copy; hi lane dies at the ret
      return false;
    }
    return false;
  }
  return block.term.kind == ir::Terminator::Kind::Ret;
}

// Allocator over the XMM registers dead over the whole block: referenced
// by none of its instructions and not live out of it (so not live in
// either). The return register is never recycled as scratch.
struct ScratchPool {
  uint32_t freeMask = 0;

  ScratchPool(const Liveness& live, int b)
      : freeMask(static_cast<uint32_t>(
            ~(live.referenced(b) | live.liveOut(b)) & kXmmRegs &
            ~isa::regBit(isa::abi::kSseReturn))) {}

  bool take(Reg* r) {
    if (freeMask == 0) return false;
    const unsigned n = static_cast<unsigned>(__builtin_ctz(freeMask)) - 16;
    *r = isa::xmmFromNum(n);
    freeMask &= freeMask - 1;
    return true;
  }
};

bool plainBaseMem(const isa::MemOperand& m) {
  return m.base != Reg::none && m.index == Reg::none && !m.ripRelative &&
         m.poolSlot < 0;
}

bool touchesMemoryState(const Instruction& in) {
  return isa::writesMemory(in) ||
         (isa::row(in.mnemonic).implicitWrites & isa::kRsp) != 0;
}

Operand poolMem(int slot) {
  isa::MemOperand m;
  m.ripRelative = true;
  m.poolSlot = slot;
  return Operand::makeMem(m);
}

// Per-block edit list: indices whose instruction is replaced by one or two
// new instructions. Applied in one rebuild.
struct EditList {
  struct Edit {
    size_t idx;
    size_t n;
    Instruction in[2];
  };
  std::vector<Edit> edits;

  // Reused across blocks and rewrites: clear() keeps the grown capacity.
  void clear() { edits.clear(); }
  void replace(size_t idx, const Instruction& a) {
    edits.push_back({idx, 1, {a, a}});
  }
  void replace(size_t idx, const Instruction& a, const Instruction& b) {
    edits.push_back({idx, 2, {a, b}});
  }

  // Rebuilds block b with the edits, its facts in step.
  void apply(Liveness& live, int b, std::vector<RegFacts>& fxOut) const {
    if (edits.empty()) return;
    const ir::InstrVec& v = live.fn().block(b).instrs;
    const std::span<const RegFacts> fx = live.facts(b);
    ir::InstrVec out(live.fn().instrAllocator());
    out.reserve(v.size() + 8);
    fxOut.clear();
    for (size_t k = 0; k < v.size(); ++k) {
      auto it = std::find_if(edits.begin(), edits.end(),
                             [&](const Edit& e) { return e.idx == k; });
      if (it == edits.end()) {
        out.push_back(v[k]);
        fxOut.push_back(fx[k]);
        continue;
      }
      for (size_t i = 0; i < it->n; ++i) {
        out.push_back(it->in[i]);
        fxOut.push_back(factsOf(it->in[i]));
      }
    }
    live.setBlock(b, std::move(out), fxOut);
  }
};

// An 8-byte lane whose memory value is currently live in a register.
struct LaneFact {
  Reg base = Reg::none;  // none => pool reference
  int32_t disp = 0;      // byte address of the lane (slot*16 for pool)
  Reg reg = Reg::none;
  bool hi = false;
};

// One pool-referencing arithmetic operand; collected per block for the
// constant-hoisting phase.
struct PoolUse {
  size_t idx;
  int slot;
  bool wide;
  bool claimed = false;
};

struct CrossIterScratch {
  std::vector<PoolUse> uses;
  std::vector<LaneFact> facts;
  std::vector<size_t> served;
  std::vector<RegFacts> fx;  // a rebuilt block's facts
  EditList edits, reuse;
};
CrossIterScratch& crossIterScratch() {
  static thread_local CrossIterScratch s;
  return s;
}

// An SSE op whose source is a pool constant: a double-lane scalar op
// (arithmetic or compare) reads 8 bytes, a packed arithmetic op 16.
bool poolOperandArith(const Instruction& in, bool* wide) {
  if (in.nops != 2 || !in.ops[0].isReg() || !in.ops[1].isMem() ||
      in.ops[1].mem.poolSlot < 0)
    return false;
  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  *wide = row.family == isa::Family::SsePacked;
  return *wide || ((row.family == isa::Family::SseScalar ||
                    row.family == isa::Family::SseCompare) &&
                   row.enc.arg == 8);
}

}  // namespace

size_t runCrossIterLoads(Liveness& live) {
  ir::CapturedFunction& fn = live.fn();
  size_t eliminated = 0;
  CrossIterScratch& s = crossIterScratch();
  for (int b = 0; b < fn.blockCount(); ++b) {
    ir::Block& block = fn.block(b);
    const size_t n = block.instrs.size();
    if (n < 2) continue;
    ScratchPool scratch(live, b);

    // --- pool-constant hoisting: every unrolled iteration re-reads its
    // coefficients from the literal pool; a constant used twice or more is
    // loaded once into a scratch register and the arithmetic goes
    // register-form. A 16-byte hoist also serves scalar users of its low
    // lane.
    std::vector<PoolUse>& uses = s.uses;
    uses.clear();
    for (size_t k = 0; k < n; ++k) {
      bool wide = false;
      if (poolOperandArith(block.instrs[k], &wide))
        uses.push_back({k, block.instrs[k].ops[1].mem.poolSlot, wide, false});
    }
    EditList& edits = s.edits;
    edits.clear();
    // Loads `slot` once into a scratch register right before the earliest
    // served use; every served use goes register-form.
    auto hoist = [&](int slot, bool wide) {
      Reg xh;
      if (!scratch.take(&xh)) return false;
      size_t firstIdx = uses[s.served[0]].idx;
      for (size_t j : s.served) firstIdx = std::min(firstIdx, uses[j].idx);
      for (size_t j : s.served) {
        uses[j].claimed = true;
        Instruction in = block.instrs[uses[j].idx];
        in.ops[1] = Operand::makeReg(xh);
        if (uses[j].idx == firstIdx)
          edits.replace(uses[j].idx,
                        isa::makeInstr(wide ? Mnemonic::Movapd
                                            : Mnemonic::Movsd,
                                       wide ? 16 : 8, Operand::makeReg(xh),
                                       poolMem(slot)),
                        in);
        else
          edits.replace(uses[j].idx, in);
      }
      eliminated += s.served.size() - 1;
      return true;
    };
    if (uses.size() >= 2) {
      auto value = [&](int slot) { return fn.pool()[size_t(slot)]; };
      // Wide anchors first: each distinct 16-byte value, counting scalar
      // low-lane matches toward its use count.
      for (size_t i = 0; i < uses.size(); ++i) {
        if (uses[i].claimed || !uses[i].wide) continue;
        const ir::PoolEntry v = value(uses[i].slot);
        s.served.clear();
        for (size_t j = 0; j < uses.size(); ++j) {
          if (uses[j].claimed) continue;
          const ir::PoolEntry w = value(uses[j].slot);
          if (uses[j].wide ? (w == v) : (w.lo == v.lo)) s.served.push_back(j);
        }
        if (s.served.size() >= 2 && !hoist(uses[i].slot, true)) break;
      }
      // Remaining scalar constants, keyed by their 8-byte value.
      for (size_t i = 0; i < uses.size(); ++i) {
        if (uses[i].claimed || uses[i].wide) continue;
        const uint64_t v = value(uses[i].slot).lo;
        s.served.clear();
        for (size_t j = 0; j < uses.size(); ++j)
          if (!uses[j].claimed && !uses[j].wide && value(uses[j].slot).lo == v)
            s.served.push_back(j);
        if (s.served.size() >= 2 && !hoist(uses[i].slot, false)) break;
      }
    }
    edits.apply(live, b, s.fx);

    // --- lane reuse: a scalar re-load of an address whose value a previous
    // (packed or scalar) load still holds becomes a register move, with a
    // lane realignment when the live copy sits in the high half.
    const std::span<const RegFacts> fx = live.facts(b);
    std::vector<LaneFact>& facts = s.facts;
    facts.clear();
    EditList& reuse = s.reuse;
    reuse.clear();
    auto killReg = [&](uint32_t writtenMask) {
      for (size_t i = 0; i < facts.size();) {
        const uint32_t bits =
            isa::regBit(facts[i].reg) |
            (facts[i].base != Reg::none ? isa::regBit(facts[i].base) : 0u);
        if (writtenMask & bits) {
          facts[i] = facts.back();
          facts.pop_back();
        } else {
          ++i;
        }
      }
    };
    for (size_t k = 0; k < block.instrs.size(); ++k) {
      const Instruction& in = block.instrs[k];
      // Rewrite a scalar f64 re-load through a live lane.
      if (in.mnemonic == Mnemonic::Movsd && in.nops == 2 &&
          in.ops[0].isReg() && in.ops[1].isMem() && in.width == 8) {
        const isa::MemOperand& m = in.ops[1].mem;
        const Reg fbase = m.poolSlot >= 0 ? Reg::none : m.base;
        const int32_t fdisp = m.poolSlot >= 0 ? m.poolSlot * 16 : m.disp;
        const bool plain = plainBaseMem(m) || m.poolSlot >= 0;
        if (plain) {
          auto it = std::find_if(facts.begin(), facts.end(),
                                 [&](const LaneFact& f) {
                                   return f.base == fbase && f.disp == fdisp;
                                 });
          if (it != facts.end() && it->reg != in.ops[0].reg &&
              hiLaneUnobserved(block, fx, k, in.ops[0].reg)) {
            const Operand dst = Operand::makeReg(in.ops[0].reg);
            const Instruction copy = isa::makeInstr(
                Mnemonic::Movapd, 16, dst, Operand::makeReg(it->reg));
            if (it->hi)
              reuse.replace(k, copy,
                            isa::makeInstr(Mnemonic::Unpckhpd, 16, dst, dst));
            else
              reuse.replace(k, copy);
            ++eliminated;
            // The destination now holds the lane value; fact bookkeeping
            // below records it off the rewritten semantics all the same.
          }
        }
      }

      // Kill, then record what this instruction makes available. A movhpd/
      // movlpd load replaces one lane only; the other lane's fact survives.
      uint32_t written = fx[k].wr;
      if ((in.mnemonic == Mnemonic::Movhpd || in.mnemonic == Mnemonic::Movlpd) &&
          in.nops == 2 && in.ops[0].isReg()) {
        const Reg d = in.ops[0].reg;
        const bool hiWrite = in.mnemonic == Mnemonic::Movhpd;
        for (size_t i = 0; i < facts.size();)
          if (facts[i].reg == d && facts[i].hi == hiWrite) {
            facts[i] = facts.back();
            facts.pop_back();
          } else {
            ++i;
          }
        written &= ~isa::regBit(d);
      }
      killReg(written);
      if (touchesMemoryState(in)) {
        for (size_t i = 0; i < facts.size();)
          if (facts[i].base != Reg::none) {
            facts[i] = facts.back();
            facts.pop_back();
          } else {
            ++i;
          }
      }
      if (in.nops == 2 && in.ops[0].isReg() && in.ops[1].isMem()) {
        const isa::MemOperand& m = in.ops[1].mem;
        const bool pool = m.poolSlot >= 0;
        if (plainBaseMem(m) || pool) {
          const Reg fbase = pool ? Reg::none : m.base;
          const int32_t fdisp = pool ? m.poolSlot * 16 : m.disp;
          const Reg r = in.ops[0].reg;
          switch (in.mnemonic) {
            case Mnemonic::Movsd:
              facts.push_back({fbase, fdisp, r, false});
              break;
            case Mnemonic::Movhpd:
              facts.push_back({fbase, fdisp, r, true});
              break;
            case Mnemonic::Movupd: case Mnemonic::Movapd:
              facts.push_back({fbase, fdisp, r, false});
              facts.push_back({fbase, fdisp + 8, r, true});
              break;
            default:
              break;
          }
        }
      } else if (in.mnemonic == Mnemonic::Movsd && in.nops == 2 &&
                 in.ops[0].isMem() && plainBaseMem(in.ops[0].mem) &&
                 in.ops[1].isReg()) {
        // Store-to-load forwarding: the stored lane is now a known value
        // of that address (the store itself wiped the other memory facts
        // above).
        facts.push_back(
            {in.ops[0].mem.base, in.ops[0].mem.disp, in.ops[1].reg, false});
      }
    }
    reuse.apply(live, b, s.fx);
  }
  return eliminated;
}

}  // namespace brew
