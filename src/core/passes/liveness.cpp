// Register facts and the block liveness over them (§IV).
#include "core/passes/passes.hpp"

#include <utility>

#include "isa/instruction.hpp"
#include "isa/registers.hpp"

namespace brew {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;

struct Tables {
  std::vector<RegFacts> facts;
  std::vector<Liveness::BlockSets> blocks;
};

// Thread-local: the passes run on every compile, so the vectors keep their
// steady-state capacity instead of reallocating per rewrite.
Tables& tables() {
  static thread_local Tables t;
  return t;
}

}  // namespace

RegFacts factsOf(const Instruction& in) {
  RegFacts f;
  const uint32_t read = isa::regsRead(in);
  f.wr = isa::regsWritten(in);
  uint32_t named = 0;
  for (unsigned i = 0; i < in.nops; ++i) {
    if (in.ops[i].isReg())
      named |= isa::regBit(in.ops[i].reg);
    else if (in.ops[i].isMem())
      named |= isa::regBit(in.ops[i].mem.base) |
               isa::regBit(in.ops[i].mem.index);
  }
  f.imp = (read | f.wr) & ~named;
  if (in.mnemonic == Mnemonic::Call || in.mnemonic == Mnemonic::CallInd) {
    // regsWritten already clobbers every XMM register. The callee may read
    // the argument registers (regsRead: xmm0-7 among them) and the flags,
    // and may leave any register as it was.
    f.use = read | kFlags;
    return f;
  }
  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  if (in.nops > 0 && in.ops[0].isReg()) {
    // A write defines the register only when it replaces every bit.
    const Reg d = in.ops[0].reg;
    const bool whole =
        isa::isXmm(d)
            ? in.nops >= 2 && (row.has(isa::kXmmWhole) ||
                               (row.has(isa::kXmmWholeIfLoad) &&
                                in.ops[1].isMem()))
            : in.width >= 4;
    if (whole) f.def = f.wr & isa::regBit(d);
  }
  f.use = read | (f.wr & ~f.def);
  // A condition code picks which flags a jcc/setcc/cmovcc reads, never
  // whether it reads any.
  if (row.flagsRead != 0 || row.has(isa::kCondFlags))
    f.use |= kFlags;
  else if (row.flagsWritten == isa::kAllFlags)
    f.def |= kFlags;
  return f;
}

Liveness::Liveness(ir::CapturedFunction& fn)
    : fn_(fn),
      facts_(tables().facts),
      blocks_(tables().blocks) {
  const size_t n = static_cast<size_t>(fn.blockCount());
  facts_.clear();
  // Room for every block to be rebuilt once (setBlock appends).
  facts_.reserve(2 * fn.totalInstructions() + 16);
  blocks_.assign(n, BlockSets{});
  for (size_t b = 0; b < n; ++b) {
    blocks_[b].first = facts_.size();
    for (const Instruction& in : fn.block(static_cast<int>(b)).instrs)
      facts_.push_back(factsOf(in));
  }
  solve();
}

RegSet Liveness::liveOut(int b) const {
  const ir::Terminator& t = fn_.block(b).term;
  switch (t.kind) {
    case ir::Terminator::Kind::Ret:
      return fn_.liveAtRet();
    case ir::Terminator::Kind::Jmp:
      return liveIn(t.taken);
    case ir::Terminator::Kind::CondJmp:
      return liveIn(t.taken) | liveIn(t.fall) | kFlags;
    default:
      return kEverything;
  }
}

void Liveness::solve() {
  const size_t n = blocks_.size();
  // Reverse creation order: successors are mostly created after their
  // predecessors, so when every edge leads to a later block (no loop) one
  // sweep settles every set.
  bool loop = false;
  for (size_t b = n; b-- > 0;) {
    const int self = static_cast<int>(b);
    BlockSets& sets = blocks_[b];
    sets.gen = sets.kill = sets.referenced = 0;
    const std::span<const RegFacts> fx = facts(self);
    for (size_t i = fx.size(); i-- > 0;) {
      sets.gen = (sets.gen & ~fx[i].def) | fx[i].use;
      sets.kill |= fx[i].def;
      sets.referenced |= fx[i].use | fx[i].wr;
    }
    const ir::Terminator& t = fn_.block(self).term;
    if (t.kind == ir::Terminator::Kind::Jmp ||
        t.kind == ir::Terminator::Kind::CondJmp)
      loop = loop || (t.taken >= 0 && t.taken <= self) ||
             (t.kind == ir::Terminator::Kind::CondJmp && t.fall >= 0 &&
              t.fall <= self);
    sets.liveIn = sets.gen | (liveOut(self) & ~sets.kill);
  }
  for (bool changed = loop; changed;) {
    changed = false;
    for (size_t b = n; b-- > 0;) {
      BlockSets& sets = blocks_[b];
      const RegSet in =
          sets.gen | (liveOut(static_cast<int>(b)) & ~sets.kill);
      if (in != sets.liveIn) {
        sets.liveIn = in;
        changed = true;
      }
    }
  }
}

size_t Liveness::compact(int b) {
  ir::InstrVec& v = fn_.block(b).instrs;
  const std::span<RegFacts> fx = facts(b);
  size_t w = 0;
  for (size_t k = 0; k < v.size(); ++k) {
    if (fx[k].dead) continue;
    if (w != k) {
      v[w] = v[k];
      fx[w] = fx[k];
    }
    ++w;
  }
  const size_t removed = v.size() - w;
  v.resize(w);
  return removed;
}

void Liveness::setBlock(int b, ir::InstrVec&& instrs,
                        std::span<const RegFacts> fx) {
  // The block's old range stays behind unused; the table is rebuilt per
  // function, so it grows by at most the rebuilt blocks.
  blocks_[static_cast<size_t>(b)].first = facts_.size();
  facts_.insert(facts_.end(), fx.begin(), fx.end());
  fn_.block(b).instrs = std::move(instrs);
}

}  // namespace brew
