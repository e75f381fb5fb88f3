// Declarations internal to the pass pipeline (§IV); the public knobs live in
// PassOptions.
//
// Right after block merging, runPasses computes each captured
// instruction's register effects once into a table that the passes which
// edit code keep in step. One backward liveness over the block CFG sits on
// top of it. Every pass that asks which registers an instruction touches,
// or which are live, asks here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/captured.hpp"

namespace brew {

// isa::regBit bits (GPR i = bit i, XMM i = bit 16+i) plus one bit for the
// flags.
using RegSet = uint64_t;
inline constexpr RegSet kXmmRegs = 0xffff0000u;
inline constexpr RegSet kFlags = RegSet{1} << 32;
inline constexpr RegSet kEverything = kFlags | 0xffffffffu;

// What one instruction does to the registers and the flags:
//  - a register is defined only when it is written whole; any other write
//    also reads the rest of it, so it is a use;
//  - calls use the SysV argument registers (xmm0-7 among them) and the
//    flags, write every caller-saved register, and define nothing;
//  - the flags are defined only by a write of all of them.
struct RegFacts {
  RegSet use = 0;
  RegSet def = 0;
  uint32_t wr = 0;    // registers written at all (isa::regsWritten)
  uint32_t imp = 0;   // registers no explicit operand names
  bool dead = false;  // removed; dropped by Liveness::compact
};

RegFacts factsOf(const isa::Instruction& in);

// The fact table of one function and the live-in set of each block.
// Exits: a `ret` uses CapturedFunction::liveAtRet(); a conditional jump
// uses the flags; Stop, SideExit and unterminated blocks use everything,
// since control leaves for code that may read anything.
class Liveness {
 public:
  // Computes the facts of every instruction of `fn`, then solve().
  explicit Liveness(ir::CapturedFunction& fn);

  ir::CapturedFunction& fn() { return fn_; }
  // Parallel to fn().block(b).instrs; valid until the next setBlock().
  std::span<RegFacts> facts(int b) {
    return {facts_.data() + block(b).first, fn_.block(b).instrs.size()};
  }

  RegSet liveIn(int b) const {
    return b < 0 ? kEverything : block(b).liveIn;
  }
  RegSet liveOut(int b) const;
  // Registers some instruction of block b used or wrote at the last
  // solve(); like the live sets, a superset of the current ones.
  RegSet referenced(int b) const { return block(b).referenced; }

  // The block fixpoint over the current facts. Every edit before the
  // entry hoist, which runs last, removes instructions, adds uses inside
  // a block of registers defined earlier in it (lane reuse's copies), or
  // keeps each block's sets, so the sets stay a sound over-approximation
  // without a re-solve.
  void solve();

  // Drops the instructions of block b whose facts are dead; returns how
  // many.
  size_t compact(int b);
  // Gives block b the instructions `instrs`, whose facts are `fx`.
  void setBlock(int b, ir::InstrVec&& instrs, std::span<const RegFacts> fx);

  // What the table keeps per block.
  struct BlockSets {
    size_t first = 0;  // start of the block's range in the fact table
    RegSet liveIn = 0, referenced = 0;
    RegSet gen = 0, kill = 0;  // the block's transfer, for solve()
  };

 private:
  const BlockSets& block(int b) const {
    return blocks_[static_cast<size_t>(b)];
  }

  ir::CapturedFunction& fn_;
  std::vector<RegFacts>& facts_;  // every block's facts, one range each
  std::vector<BlockSets>& blocks_;
};

// Value-numbered window of live loaded lanes (cross_iter.cpp): repeated
// memory operands of the unrolled stream (literal-pool constants
// especially) are hoisted into scratch registers and re-loads become
// register reuse. Returns the number of memory accesses eliminated.
size_t runCrossIterLoads(Liveness& live);

struct RegisterRuleStats {
  size_t copiesCoalesced = 0;  // XMM copies removed
  RegSet hoisted = 0;  // registers whose pool load moved to entry
};

// The XMM register rules (register_rules.cpp):
//  - `coalesce`: XMM-to-XMM movapd/movaps copies go, by forward copy
//    propagation when the destination dies in the block before either
//    register changes, else by a backward register swap when the copy's
//    source dies at the copy;
//  - `hoist`: an XMM register written only by loads of one pool slot (two
//    or more of them) is loaded once, at function entry.
RegisterRuleStats runRegisterRules(Liveness& live, bool coalesce, bool hoist);

// Two iterations per trip for kept loops (loop_vectorize.cpp): an eligible
// single-exit loop gets a packed-double body behind a guard, and a copy of
// the scalar loop runs the remainder and every loop the guard turns away.
// Runs last, after the entry hoist, whose registers (`hoisted`) are live
// everywhere although the live sets do not say so; it leaves the tables
// behind once it edits. Returns the number of loops vectorized.
size_t runLoopVectorize(Liveness& live, RegSet hoisted);

}  // namespace brew
