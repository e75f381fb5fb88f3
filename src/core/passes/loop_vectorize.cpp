// Two iterations per trip for kept loops (§V-B).
//
// A width-keyed stencil sweep keeps its cell loop, and every trip updates
// one cell with scalar `sd` arithmetic. runLoopVectorize rewrites such a
// loop to run two iterations per trip with SSE2 packed doubles: lane 0
// carries iteration i, lane 1 iteration i+1. Each lane performs its own
// iteration's operations in their original order, so the packed loop is
// bit-exact by construction; nothing is reassociated.
//
// The shape (docs/PASSES.md): a single-exit cycle of the block CFG whose
// iteration — the rotation that starts right after the exit test — is
// straight-line `sd` arithmetic, `movsd` loads and stores, XMM copies and
// 64-bit address arithmetic; every data address advances by 8 bytes per
// iteration; the exit test is `jne` on an induction register. At the top of
// that rotation no register the loop writes may be live except the
// induction registers, which rules out reductions and any other value one
// iteration hands to the next.
//
// Every edge into the rotation's head goes to a guard instead. The guard
// checks that the store stream cannot overlap a neighbouring iteration's
// accesses and that at least three iterations remain, then runs the packed
// loop, which stops with one or two iterations left. Those, and every loop
// the guard turns away, run in a copy of the scalar loop. Since the scalar
// loop always runs the last iteration, every register the loop writes
// leaves it exact.
#include <algorithm>
#include <array>
#include <bit>
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

constexpr size_t kMaxCycleBlocks = 8;
constexpr size_t kMaxBodyInstrs = 128;
constexpr size_t kMaxAliasChecks = 4;
constexpr RegSet kGprs = 0xffffu;
constexpr int64_t kLane = 8;  // bytes per lane; the data stride per iteration

// A 64-bit value as a linear function of the GPRs at the top of the
// iteration: the sum of coef[i] * reg[i] over at most kTerms registers,
// plus disp. Anything else, or a value whose terms grow past the bounds,
// is unknown.
struct Affine {
  static constexpr size_t kTerms = 4;
  static constexpr int32_t kMaxCoef = 1 << 16;
  static constexpr int64_t kMaxDisp = int64_t{1} << 40;
  bool known = false;
  uint8_t n = 0;
  std::array<Reg, kTerms> reg{};
  std::array<int32_t, kTerms> coef{};
  int64_t disp = 0;

  static Affine constant(int64_t v) {
    Affine a;
    a.known = v > -kMaxDisp && v < kMaxDisp;
    a.disp = a.known ? v : 0;
    return a;
  }
  static Affine of(Reg r) {
    Affine a = constant(0);
    a.n = 1;
    a.reg[0] = r;
    a.coef[0] = 1;
    return a;
  }
  // this += o * scale, for |scale| <= 8.
  void add(const Affine& o, int32_t scale) {
    known = known && o.known;
    for (size_t i = 0; i < o.n && known; ++i) {
      size_t j = 0;
      while (j < n && reg[j] != o.reg[i]) ++j;
      if (j == n) {
        if (n == kTerms) {
          known = false;
          break;
        }
        reg[n] = o.reg[i];
        coef[n++] = 0;
      }
      coef[j] += o.coef[i] * scale;
      known = coef[j] > -kMaxCoef && coef[j] < kMaxCoef;
      if (coef[j] == 0) {  // cancelled
        reg[j] = reg[--n];
        coef[j] = coef[n];
      }
    }
    disp += o.disp * scale;
    if (!known || disp <= -kMaxDisp || disp >= kMaxDisp) *this = Affine{};
  }
};

struct Access {
  Affine addr;
  bool store = false;
};

// One run-time check of the store stream: with D = a - b (b may be none),
// each a - b + c for c in [cmin, cmax] is the distance between a store and
// another access of the same iteration.
struct AliasCheck {
  Reg a = Reg::none, b = Reg::none;
  int64_t cmin = 0, cmax = 0;
};

struct Plan {
  std::vector<int> cycle;  // the rotation, head first; the last block exits
  std::vector<Instruction> body;  // the packed iteration and its trip test
  std::vector<size_t> poolFix;    // body operands that need a paired slot
  std::vector<std::pair<Reg, Reg>> broadcasts;  // (packed copy, invariant)
  std::vector<AliasCheck> checks;
  Reg counter = Reg::none;  // the remaining distance to the exit
  Reg iv = Reg::none;       // the exit test's induction register
  Operand target;           // ... which the loop leaves when it reaches
  int64_t step = 0;
};

// Reused across rewrites: clear() keeps the grown capacity.
struct Scratch {
  std::vector<Plan> plans;
  std::vector<Access> accesses;
  std::vector<Instruction> code;  // a guard block under construction
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

Operand reg(Reg r) { return Operand::makeReg(r); }
Operand imm(int64_t v) { return Operand::makeImm(v); }

// Appends `m a, b`, built in place.
void put(std::vector<Instruction>& out, Mnemonic m, uint8_t width,
         const Operand& a, const Operand& b) {
  Instruction& x = out.emplace_back();
  x.mnemonic = m;
  x.width = width;
  x.setOps(a, b);
}

Mnemonic packedTwin(Mnemonic m) {
  switch (m) {
    case Mnemonic::Addsd: return Mnemonic::Addpd;
    case Mnemonic::Subsd: return Mnemonic::Subpd;
    case Mnemonic::Mulsd: return Mnemonic::Mulpd;
    case Mnemonic::Divsd: return Mnemonic::Divpd;
    default: return Mnemonic::Invalid;
  }
}

bool isPool(const Operand& op) { return op.isMem() && op.mem.poolSlot >= 0; }

// The single-exit cycle closed by block x's conditional jump: x's in-loop
// successor heads a chain of blocks joined by unconditional jumps that
// leads back to x.
bool findCycle(const ir::CapturedFunction& fn, int x, std::vector<int>& out) {
  const ir::Terminator& t = fn.block(x).term;
  if (t.kind != ir::Terminator::Kind::CondJmp) return false;
  int head = -1, exit = -1;
  if (t.cond == isa::Cond::NE) {
    head = t.taken;
    exit = t.fall;
  } else if (t.cond == isa::Cond::E) {
    head = t.fall;
    exit = t.taken;
  } else {
    return false;
  }
  out.clear();
  for (int b = head; b >= 0 && out.size() < kMaxCycleBlocks;) {
    out.push_back(b);
    if (b == x)
      return head != fn.entry() && exit >= 0 &&
             std::find(out.begin(), out.end(), exit) == out.end();
    const ir::Terminator& bt = fn.block(b).term;
    if (bt.kind != ir::Terminator::Kind::Jmp) return false;
    b = bt.taken;
  }
  return false;
}

class LoopVectorizer {
 public:
  LoopVectorizer(Liveness& live, RegSet hoisted, Scratch& s)
      : live_(live), fn_(live.fn()), hoisted_(hoisted), s_(s) {}

  bool plan(Plan& p);
  void apply(const Plan& p);

 private:
  // Takes the lowest free register of `kind` (kGprs or kXmmRegs).
  bool take(RegSet kind, Reg* out) {
    const RegSet avail = free_ & kind;
    if (avail == 0) return false;
    const unsigned bit = static_cast<unsigned>(std::countr_zero(avail));
    free_ &= ~(RegSet{1} << bit);
    *out = bit >= 16 ? isa::xmmFromNum(bit - 16) : isa::gprFromNum(bit);
    return true;
  }

  bool planAliasChecks(Plan& p);

  Liveness& live_;
  ir::CapturedFunction& fn_;
  const RegSet hoisted_;
  Scratch& s_;
  RegSet written_ = 0;
  RegSet free_ = 0;
};

// Fills `p` for the cycle in p.cycle, or returns false (the loop stays
// scalar). The live sets are the ones solved before the first pass: every
// later edit kept them a superset, except the entry hoist, whose registers
// are live everywhere and are added here.
bool LoopVectorizer::plan(Plan& p) {
  p.body.clear();
  p.poolFix.clear();
  p.broadcasts.clear();
  p.checks.clear();
  const int head = p.cycle.front(), x = p.cycle.back();
  const RegSet top = live_.liveIn(head);
  written_ = 0;
  RegSet busy = hoisted_;
  size_t count = 0;
  for (const int b : p.cycle) {
    for (const RegFacts& f : live_.facts(b)) {
      written_ |= f.wr;
      busy |= f.use | f.wr;
    }
    busy |= live_.liveIn(b) | live_.liveOut(b);
    count += fn_.block(b).instrs.size();
  }
  // A value one iteration hands to the next, other than an induction
  // register: flags, a reduction, any loop-carried XMM register.
  if (count == 0 || count > kMaxBodyInstrs || (top & kFlags) != 0 ||
      (top & written_ & kXmmRegs) != 0)
    return false;
  free_ = ~busy & (kXmmRegs | kGprs) & ~isa::regBit(Reg::rsp);
  if (!take(kGprs, &p.counter)) return false;

  std::array<Affine, 16> sym;
  for (unsigned r = 0; r < 16; ++r) sym[r] = Affine::of(isa::gprFromNum(r));
  std::array<int64_t, 16> step{};
  RegSet updated = 0;       // induction registers updated so far
  RegSet selfOnly = kGprs;  // every write so far was a self-update
  std::vector<Access>& accesses = s_.accesses;
  accesses.clear();
  bool exitSeen = false;
  Reg spill = Reg::none;  // an arithmetic data operand's packed load

  // The packed form of `in`, built in place from a copy: its operands
  // under mnemonic m, 16 bytes wide.
  auto packed = [&](const Instruction& in, Mnemonic m) -> Instruction& {
    Instruction& x = p.body.emplace_back(in);
    x.mnemonic = m;
    x.width = 16;
    return x;
  };
  // The packed copy of an XMM source: loop-invariant inputs are read
  // through a broadcast made once before the loop.
  auto source = [&](Reg r, Reg* out) {
    if ((written_ & isa::regBit(r)) != 0) {
      *out = r;
      return true;
    }
    for (const auto& [copy, from] : p.broadcasts)
      if (from == r) {
        *out = copy;
        return true;
      }
    if (!take(kXmmRegs, out)) return false;
    p.broadcasts.emplace_back(*out, r);
    return true;
  };
  auto address = [&](const isa::MemOperand& m) {
    Affine a = Affine::constant(m.disp);
    if (m.ripRelative) a.known = false;
    if (m.base != Reg::none) a.add(sym[isa::regNum(m.base)], 1);
    if (m.index != Reg::none) a.add(sym[isa::regNum(m.index)], m.scale);
    return a;
  };
  auto data = [&](const Operand& op, bool store) {
    accesses.push_back({address(op.mem), store});
    return accesses.back().addr.known;
  };
  auto pool = [&](const Instruction& in, Mnemonic m) {
    p.poolFix.push_back(p.body.size());
    packed(in, m);
  };
  // A self-update `r += delta` (add, sub or lea): runs twice per packed
  // trip.
  auto update = [&](const Instruction& in, int64_t delta) {
    const Reg r = in.ops[0].reg;
    if ((updated & isa::regBit(r)) != 0 || delta * 2 != int32_t(delta * 2))
      return false;
    updated |= isa::regBit(r);
    step[isa::regNum(r)] += delta;
    sym[isa::regNum(r)].disp += delta;
    Instruction& x = p.body.emplace_back(in);
    if (x.ops[1].isImm())
      x.ops[1].imm *= 2;
    else
      x.ops[1].mem.disp *= 2;
    return true;
  };

  for (const int b : p.cycle) {
    const ir::InstrVec& v = fn_.block(b).instrs;
    const std::span<const RegFacts> fx = live_.facts(b);
    for (size_t k = 0; k < v.size(); ++k) {
      const Instruction& in = v[k];
      const RegFacts& f = fx[k];
      const bool last = b == x && k + 1 == v.size();
      if (in.nops != 2 || f.imp != 0) return false;
      const Operand& d = in.ops[0];
      const Operand& s = in.ops[1];
      // An induction register is read only before its update, except by
      // the exit test.
      if ((f.use & updated) != 0 && !(last && in.mnemonic == Mnemonic::Cmp))
        return false;
      const bool gprDst = d.isReg() && isa::isGpr(d.reg);
      if (gprDst && in.width != 8 &&
          !(in.mnemonic == Mnemonic::Mov && in.width == 4 && s.isImm() &&
            s.imm >= 0))
        return false;
      Reg src;
      switch (in.mnemonic) {
        case Mnemonic::Lea:
          if (s.mem.ripRelative) return false;
          if (s.mem.base == d.reg && s.mem.index == Reg::none) {
            if (!update(in, s.mem.disp)) return false;
            break;
          }
          sym[isa::regNum(d.reg)] = address(s.mem);
          selfOnly &= ~isa::regBit(d.reg);
          p.body.push_back(in);
          break;
        case Mnemonic::Add:
        case Mnemonic::Sub:
          if (!gprDst || !s.isImm() ||
              !update(in, in.mnemonic == Mnemonic::Add ? s.imm : -s.imm))
            return false;
          if (last) {  // a counter that sets ZF
            p.iv = d.reg;
            p.target = imm(0);
            exitSeen = true;
          }
          break;
        case Mnemonic::Mov:
          if (!gprDst || !(s.isImm() || (s.isReg() && isa::isGpr(s.reg))))
            return false;
          sym[isa::regNum(d.reg)] = s.isImm() ? Affine::constant(s.imm)
                                              : sym[isa::regNum(s.reg)];
          selfOnly &= ~isa::regBit(d.reg);
          p.body.push_back(in);
          break;
        case Mnemonic::Cmp: {
          // The exit test: an induction register against an invariant.
          if (!last || !gprDst || in.width != 8) return false;
          const bool dIv = (updated & isa::regBit(d.reg)) != 0;
          const Operand& other = dIv ? s : d;
          p.iv = dIv ? d.reg : (s.isReg() ? s.reg : Reg::none);
          if ((updated & isa::regBit(p.iv)) == 0 ||
              !(other.isImm() ||
                (other.isReg() && (written_ & isa::regBit(other.reg)) == 0)))
            return false;
          p.target = other;
          exitSeen = true;
          break;
        }
        case Mnemonic::Movsd:
          if (in.width != 8) return false;
          if (d.isReg() && s.isReg()) {  // low-lane merge: a lane copy
            if (!source(s.reg, &src)) return false;
            packed(in, Mnemonic::Movapd).ops[1].reg = src;
          } else if (d.isReg() && isPool(s)) {
            pool(in, Mnemonic::Movapd);
          } else if (d.isReg()) {
            if (!data(s, false)) return false;
            packed(in, Mnemonic::Movupd);
          } else {
            if (isPool(d) || !data(d, true) || !source(s.reg, &src))
              return false;
            packed(in, Mnemonic::Movupd).ops[1].reg = src;
          }
          break;
        case Mnemonic::Movapd:
        case Mnemonic::Movaps:
          if (!d.isReg() || !s.isReg() || !source(s.reg, &src)) return false;
          packed(in, Mnemonic::Movapd).ops[1].reg = src;
          break;
        case Mnemonic::Pxor:
        case Mnemonic::Xorpd:
        case Mnemonic::Xorps:  // the zeroing idiom zeroes both lanes
          if (!d.isReg() || !s.isReg() || d.reg != s.reg) return false;
          p.body.push_back(in);
          break;
        default: {
          const Mnemonic twin = packedTwin(in.mnemonic);
          if (twin == Mnemonic::Invalid || !d.isReg()) return false;
          if (s.isReg()) {
            if (!source(s.reg, &src)) return false;
            packed(in, twin).ops[1].reg = src;
          } else if (isPool(s)) {
            pool(in, twin);
          } else {
            // Legacy-SSE packed memory operands must be 16-byte aligned;
            // the data goes through an unaligned load.
            if (!data(s, false) ||
                (spill == Reg::none && !take(kXmmRegs, &spill)))
              return false;
            packed(in, Mnemonic::Movupd).ops[0].reg = spill;
            packed(in, twin).ops[1] = reg(spill);
          }
          break;
        }
      }
      // A write other than a self-update ends a register's claim to be an
      // induction register.
      if (in.mnemonic != Mnemonic::Add && in.mnemonic != Mnemonic::Sub &&
          in.mnemonic != Mnemonic::Lea)
        selfOnly &= ~(f.wr & kGprs);
    }
  }
  // The exit test reads an induction register, and so does the top of the
  // iteration for every GPR the loop writes.
  const RegSet ivs = updated & selfOnly;
  if (!exitSeen || (ivs & isa::regBit(p.iv)) == 0 ||
      (top & written_ & kGprs & ~ivs) != 0)
    return false;
  p.step = step[isa::regNum(p.iv)];
  const int64_t mag = p.step < 0 ? -p.step : p.step;
  if (!std::has_single_bit(static_cast<uint64_t>(mag)) || mag > (1 << 24))
    return false;

  // Lane 1 is iteration i+1 only if every data address moves by 8.
  for (const Access& a : accesses) {
    int64_t stride = 0;
    for (size_t i = 0; i < a.addr.n; ++i)
      stride += a.addr.coef[i] * step[isa::regNum(a.addr.reg[i])];
    if (stride != kLane) return false;
  }
  // The trip test: the loop runs on while three or more iterations remain.
  put(p.body, Mnemonic::Sub, 8, reg(p.counter), imm(2 * mag));
  put(p.body, Mnemonic::Cmp, 8, reg(p.counter), imm(2 * mag));
  return planAliasChecks(p);
}

// Two packed lanes move iteration i+1's accesses before iteration i's
// later ones. That is exact unless a store and another access of the
// neighbouring iteration overlap: their distance must not lie in (-16, 16),
// except 0 (the same iteration's own address).
bool LoopVectorizer::planAliasChecks(Plan& p) {
  const std::vector<Access>& accesses = s_.accesses;
  for (size_t i = 0; i < accesses.size(); ++i) {
    for (size_t j = i + 1; j < accesses.size(); ++j) {
      if (!accesses[i].store && !accesses[j].store) continue;
      Affine diff = accesses[i].addr;
      diff.add(accesses[j].addr, -1);
      if (!diff.known) return false;
      Reg plus = Reg::none, minus = Reg::none;
      for (size_t t = 0; t < diff.n; ++t) {
        if (diff.coef[t] == 1 && plus == Reg::none)
          plus = diff.reg[t];
        else if (diff.coef[t] == -1 && minus == Reg::none)
          minus = diff.reg[t];
        else
          return false;
      }
      int64_t c = diff.disp;
      if (plus == Reg::none && minus == Reg::none) {
        if (c != 0 && c > -16 && c < 16) return false;
        continue;
      }
      // Orient each pair one way, so that checks of a pair merge.
      if (plus == Reg::none ||
          (minus != Reg::none && isa::regNum(minus) < isa::regNum(plus))) {
        std::swap(plus, minus);
        c = -c;
      }
      auto it = std::find_if(p.checks.begin(), p.checks.end(),
                             [&](const AliasCheck& ck) {
                               return ck.a == plus && ck.b == minus;
                             });
      if (it == p.checks.end()) {
        if (p.checks.size() == kMaxAliasChecks) return false;
        p.checks.push_back({plus, minus, c, c});
      } else {
        it->cmin = std::min(it->cmin, c);
        it->cmax = std::max(it->cmax, c);
      }
    }
  }
  // The guard compares with 32-bit immediates.
  for (const AliasCheck& ck : p.checks)
    if (ck.cmin < -(int64_t{1} << 28) || ck.cmax > (int64_t{1} << 28))
      return false;
  return true;
}

void LoopVectorizer::apply(const Plan& p) {
  using Kind = ir::Terminator::Kind;
  const size_t m = p.cycle.size();
  const int first = fn_.blockCount();
  // The scalar loop is a copy of the cycle whose back edge skips the guard;
  // its head keeps the back edge as its only predecessor, so the layout
  // still places it as a latch. The guard's way out runs a second copy of
  // the blocks before the exit test, which joins the loop there.
  for (size_t i = 0; i + 1 < 2 * m; ++i) {
    const ir::Block& from = fn_.block(p.cycle[i % m]);
    fn_.newBlock(from.guestAddress, from.stateDigest);
  }
  auto loop = [&](size_t i) { return first + static_cast<int>(i); };
  for (size_t i = 0; i + 1 < 2 * m; ++i) {
    ir::Block& copy = fn_.block(first + static_cast<int>(i));
    const ir::Block& from = fn_.block(p.cycle[i % m]);
    copy.instrs.assign(from.instrs.begin(), from.instrs.end());
    copy.term = from.term;
    if (i + 1 == m)  // the exit test closes the loop
      (copy.term.taken == p.cycle.front() ? copy.term.taken
                                           : copy.term.fall) = loop(0);
    else if (i + 2 == 2 * m)  // the path joins the loop at its exit test
      copy.term.taken = loop(m - 1);
    else
      copy.term.taken = first + static_cast<int>(i) + 1;
  }
  const int scalar = loop(m > 1 ? m : 0);

  // The guard: a chain of blocks, each ending in a check that leaves for
  // the scalar loop. The first also makes the broadcasts.
  const Operand t = reg(p.counter);
  const int64_t mag = p.step < 0 ? -p.step : p.step;
  const int guard = fn_.blockCount();
  const uint64_t guest = fn_.block(p.cycle.front()).guestAddress;
  const uint64_t digest = fn_.block(p.cycle.front()).stateDigest;
  std::vector<Instruction>& code = s_.code;
  code.clear();
  auto add = [&](Mnemonic mn, uint8_t width, const Operand& a,
                 const Operand& b) { put(code, mn, width, a, b); };
  for (const auto& [copy, from] : p.broadcasts) {
    add(Mnemonic::Movapd, 16, reg(copy), reg(from));
    add(Mnemonic::Unpcklpd, 16, reg(copy), reg(copy));
  }
  auto check = [&](isa::Cond fail) {
    const int g = fn_.newBlock(guest, digest);
    ir::Block& block = fn_.block(g);
    block.instrs.assign(code.begin(), code.end());
    block.term = {Kind::CondJmp, fail, scalar, g + 1};
    code.clear();
  };
  for (const AliasCheck& ck : p.checks) {
    // D + c in [-15, 15] for some c <=> D - lo <= hi - lo, unsigned.
    add(Mnemonic::Mov, 8, t, reg(ck.a));
    if (ck.b != Reg::none) add(Mnemonic::Sub, 8, t, reg(ck.b));
    add(Mnemonic::Sub, 8, t, imm(-15 - ck.cmax));
    add(Mnemonic::Cmp, 8, t, imm(30 + ck.cmax - ck.cmin));
    check(isa::Cond::BE);
  }
  // The remaining distance to the exit, counted in the step's direction.
  if (p.step > 0) {
    add(Mnemonic::Mov, 8, t, p.target);
    add(Mnemonic::Sub, 8, t, reg(p.iv));
  } else {
    add(Mnemonic::Mov, 8, t, reg(p.iv));
    if (!p.target.isImm() || p.target.imm != 0)
      add(Mnemonic::Sub, 8, t, p.target);
  }
  if (mag > 1) {
    // Not a whole number of iterations: the scalar loop keeps the
    // original's behaviour.
    add(Mnemonic::Test, 8, t, imm(mag - 1));
    check(isa::Cond::NE);
  }
  // Three or more iterations left: two packed, at least one scalar.
  add(Mnemonic::Cmp, 8, t, imm(2 * mag));
  check(isa::Cond::BE);

  // The packed loop, where the last check falls.
  const int vec = fn_.newBlock(guest, digest);
  ir::Block& v = fn_.block(vec);
  v.instrs.assign(p.body.begin(), p.body.end());
  for (const size_t k : p.poolFix) {
    isa::MemOperand& mem = v.instrs[k].ops[1].mem;
    const uint64_t lo = fn_.pool()[static_cast<size_t>(mem.poolSlot)].lo;
    mem.poolSlot = fn_.addPoolConstant(lo, lo);
  }
  v.term = {Kind::CondJmp, isa::Cond::A, vec, scalar};

  // Every other way into the head now passes the guard.
  for (int b = 0; b < first; ++b) {
    ir::Terminator& term = fn_.block(b).term;
    if (term.kind != Kind::Jmp && term.kind != Kind::CondJmp) continue;
    if (term.taken == p.cycle.front()) term.taken = guard;
    if (term.kind == Kind::CondJmp && term.fall == p.cycle.front())
      term.fall = guard;
  }
}

}  // namespace

size_t runLoopVectorize(Liveness& live, RegSet hoisted) {
  ir::CapturedFunction& fn = live.fn();
  const int n = fn.blockCount();
  // Only an edge to an earlier block, or to itself, can close a cycle.
  bool backEdge = false;
  for (int b = 0; b < n && !backEdge; ++b) {
    const ir::Terminator& t = fn.block(b).term;
    backEdge = (t.kind == ir::Terminator::Kind::Jmp ||
                t.kind == ir::Terminator::Kind::CondJmp) &&
               ((t.taken >= 0 && t.taken <= b) ||
                (t.kind == ir::Terminator::Kind::CondJmp && t.fall >= 0 &&
                 t.fall <= b));
  }
  if (!backEdge) return 0;

  Scratch& s = scratch();
  std::vector<Plan>& plans = s.plans;
  LoopVectorizer vectorizer(live, hoisted, s);
  size_t kept = 0;
  for (int x = 0; x < n; ++x) {
    if (plans.size() == kept) plans.emplace_back();
    if (findCycle(fn, x, plans[kept].cycle) && vectorizer.plan(plans[kept]))
      ++kept;
  }
  // Planning reads the liveness; the edits below leave it behind.
  for (size_t i = 0; i < kept; ++i) vectorizer.apply(plans[i]);
  return kept;
}

}  // namespace brew
