#include "ir/captured.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "isa/encoder.hpp"
#include "isa/printer.hpp"
#include "support/telemetry.hpp"

namespace brew::ir {

support::ArenaAllocator<isa::Instruction> CapturedFunction::instrAllocator() {
  if (arena_ == nullptr) arena_ = std::make_shared<support::Arena>();
  return support::ArenaAllocator<isa::Instruction>(arena_.get());
}

int CapturedFunction::newBlock(uint64_t guestAddress, uint64_t stateDigest) {
  Block block;
  block.instrs = InstrVec(instrAllocator());
  block.guestAddress = guestAddress;
  block.stateDigest = stateDigest;
  blocks_.push_back(std::move(block));
  return static_cast<int>(blocks_.size() - 1);
}

int CapturedFunction::addPoolConstant(uint64_t lo, uint64_t hi) {
  const PoolEntry entry{lo, hi};
  for (size_t i = 0; i < pool_.size(); ++i)
    if (pool_[i] == entry) return static_cast<int>(i);
  pool_.push_back(entry);
  return static_cast<int>(pool_.size() - 1);
}

size_t CapturedFunction::totalInstructions() const {
  size_t n = 0;
  for (const Block& b : blocks_) n += b.instrs.size();
  return n;
}

std::string CapturedFunction::dump() const {
  std::string out;
  char buf[128];
  for (int i = 0; i < blockCount(); ++i) {
    const Block& b = blocks_[static_cast<size_t>(i)];
    std::snprintf(buf, sizeof buf,
                  "block %d (guest 0x%" PRIx64 ", state %016" PRIx64 ")%s:\n",
                  i, b.guestAddress, b.stateDigest,
                  i == entry_ ? " [entry]" : "");
    out += buf;
    for (const auto& instr : b.instrs) {
      out += "  ";
      out += isa::toString(instr);
      out += '\n';
    }
    switch (b.term.kind) {
      case Terminator::Kind::None:
        out += "  <no terminator>\n";
        break;
      case Terminator::Kind::Ret:
        out += "  ret\n";
        break;
      case Terminator::Kind::Jmp:
        std::snprintf(buf, sizeof buf, "  jmp block %d\n", b.term.taken);
        out += buf;
        break;
      case Terminator::Kind::CondJmp:
        std::snprintf(buf, sizeof buf, "  j%s block %d, else block %d\n",
                      isa::condName(b.term.cond), b.term.taken, b.term.fall);
        out += buf;
        break;
      case Terminator::Kind::Stop:
        out += "  <tail transfer>\n";
        break;
      case Terminator::Kind::SideExit:
        std::snprintf(buf, sizeof buf,
                      "  side-exit to guest 0x%" PRIx64 " (pool slot %d)\n",
                      b.term.guestTarget, b.term.poolSlot);
        out += buf;
        break;
    }
  }
  if (!pool_.empty()) {
    out += "pool:\n";
    for (size_t i = 0; i < pool_.size(); ++i) {
      double d;
      std::memcpy(&d, &pool_[i].lo, 8);
      std::snprintf(buf, sizeof buf,
                    "  [%zu] 0x%016" PRIx64 " %016" PRIx64 "  (%g)\n", i,
                    pool_[i].hi, pool_[i].lo, d);
      out += buf;
    }
  }
  return out;
}

namespace {

// layoutOrder runs on every emit; the marker vectors keep their capacity
// across calls on each thread instead of reallocating per rewrite. Returns
// the number of latch stubs placed right before their loop header.
size_t layoutOrderInto(const CapturedFunction& fn, std::vector<int>& order) {
  order.clear();
  static thread_local std::vector<uint8_t> placed, reachable;
  static thread_local std::vector<int> work, preds, latch;
  const size_t n = static_cast<size_t>(fn.blockCount());
  placed.assign(n, 0);
  order.reserve(n);

  // Reachability from the entry block: merged/dead blocks are not emitted.
  // Edges out of reachable blocks are counted per target on the way.
  reachable.assign(n, 0);
  preds.assign(n, 0);
  {
    work.clear();
    work.push_back(fn.entry());
    while (!work.empty()) {
      const int id = work.back();
      work.pop_back();
      if (id < 0 || reachable[static_cast<size_t>(id)] != 0) continue;
      reachable[static_cast<size_t>(id)] = 1;
      const Terminator& t = fn.block(id).term;
      if (t.kind == Terminator::Kind::Jmp ||
          t.kind == Terminator::Kind::CondJmp) {
        work.push_back(t.taken);
        if (t.taken >= 0) ++preds[static_cast<size_t>(t.taken)];
      }
      if (t.kind == Terminator::Kind::CondJmp) {
        work.push_back(t.fall);
        if (t.fall >= 0) ++preds[static_cast<size_t>(t.fall)];
      }
    }
  }

  // Latch stubs: S ends in `jmp B`, B is S's only predecessor and jumps to
  // S as its taken branch. Chained after B, the loop would take B's jcc and
  // S's jmp on every iteration; placed before B, S falls into B.
  latch.assign(n, -1);
  for (size_t s = 0; s < n; ++s) {
    const Terminator& t = fn.block(static_cast<int>(s)).term;
    if (reachable[s] == 0 || preds[s] != 1 || t.kind != Terminator::Kind::Jmp)
      continue;
    const int b = t.taken;
    if (b < 0 || b == fn.entry() || b == static_cast<int>(s)) continue;
    const Terminator& bt = fn.block(b).term;
    if (bt.kind == Terminator::Kind::CondJmp &&
        bt.taken == static_cast<int>(s) && bt.fall != static_cast<int>(s))
      latch[static_cast<size_t>(b)] = static_cast<int>(s);
  }

  // Greedy fall-through chaining starting from the entry: after a CondJmp
  // place the fall-through successor next (so no extra jmp is needed);
  // after a Jmp place its target next when still unplaced. A loop header
  // is preceded by its latch stub.
  size_t latches = 0;
  auto placeChain = [&](int start) {
    int current = start;
    while (current >= 0 && reachable[static_cast<size_t>(current)] != 0 &&
           placed[static_cast<size_t>(current)] == 0) {
      const int stub = latch[static_cast<size_t>(current)];
      if (stub >= 0 && placed[static_cast<size_t>(stub)] == 0) {
        placed[static_cast<size_t>(stub)] = 1;
        order.push_back(stub);
      }
      if (stub >= 0 && order.back() == stub) ++latches;
      placed[static_cast<size_t>(current)] = 1;
      order.push_back(current);
      const Terminator& t = fn.block(current).term;
      switch (t.kind) {
        case Terminator::Kind::CondJmp:
          current = t.fall;
          break;
        case Terminator::Kind::Jmp:
          current = t.taken;
          break;
        default:
          current = -1;
          break;
      }
    }
  };

  placeChain(fn.entry());
  // Remaining reachable blocks (branch-taken targets) in discovery order.
  for (int i = 0; i < fn.blockCount(); ++i)
    if (reachable[static_cast<size_t>(i)] != 0 &&
        placed[static_cast<size_t>(i)] == 0)
      placeChain(i);
  return latches;
}

}  // namespace

std::vector<int> layoutOrder(const CapturedFunction& fn) {
  std::vector<int> order;
  layoutOrderInto(fn, order);
  return order;
}

Result<ExecMemory> emit(const CapturedFunction& fn, size_t maxCodeBytes,
                        EmitStats* stats) {
  if (fn.blockCount() == 0)
    return Error{ErrorCode::InvalidArgument, 0, "empty captured function"};

  // Chain-time accounting in raw TSC ticks (converted once at the end):
  // layout + relocation run on every rewrite, so the cheap clock matters.
  uint64_t chainTicks = 0;
  const uint64_t tLayout0 = telemetry::fastTicks();
  static thread_local std::vector<int> order;
  const size_t latches = layoutOrderInto(fn, order);
  chainTicks += telemetry::fastTicks() - tLayout0;

  struct BlockFixup {
    size_t fieldOffset;
    int targetBlock;
  };
  struct PoolFixup {
    size_t fieldOffset;
    size_t instrEnd;  // RIP-relative displacements are relative to the
                      // instruction end, which may include trailing imm bytes
    int slot;
  };
  // Emission scratch, reused across calls on each thread: a rewrite emits
  // a few hundred bytes, and re-growing these from empty every time puts
  // allocator traffic on the hot path.
  thread_local std::vector<uint8_t> code;
  thread_local std::vector<BlockFixup> blockFixups;
  thread_local std::vector<PoolFixup> poolFixups;
  code.clear();
  blockFixups.clear();
  poolFixups.clear();
  // Rough upper bound (x86-64 instructions average well under 8 bytes plus
  // one potential jump per block) so the byte buffer grows at most once.
  size_t estimate = fn.pool().size() * 16 + 64;
  for (const int id : order) estimate += fn.block(id).instrs.size() * 8 + 16;
  code.reserve(estimate);
  static thread_local std::vector<int64_t> blockOffset;
  blockOffset.assign(static_cast<size_t>(fn.blockCount()), -1);
  size_t instructions = 0;
  std::vector<CodeReloc> relocs;
  bool portable = true;

  for (size_t pos = 0; pos < order.size(); ++pos) {
    const int id = order[pos];
    const Block& block = fn.block(id);
    blockOffset[static_cast<size_t>(id)] = static_cast<int64_t>(code.size());

    for (const isa::Instruction& instr : block.instrs) {
      const size_t start = code.size();
      isa::EncodeInfo info;
      if (Status s = isa::encode(instr, start, code, &info); !s)
        return s.error();
      if (info.rel32Offset >= 0 && info.isPoolRef)
        poolFixups.push_back({start + static_cast<size_t>(info.rel32Offset),
                              start + info.length, info.poolSlot});
      if (instr.absCode) {
        if (info.imm64Offset >= 0)
          relocs.push_back(
              CodeReloc{static_cast<uint32_t>(
                            start + static_cast<size_t>(info.imm64Offset)),
                        static_cast<uint64_t>(instr.ops[1].imm)});
        else
          portable = false;  // address landed in a non-imm64 encoding
      }
      ++instructions;
      if (code.size() > maxCodeBytes)
        return Error{ErrorCode::CodeBufferFull, block.guestAddress,
                     "generated code exceeds configured maximum"};
    }

    const int next =
        (pos + 1 < order.size()) ? order[pos + 1] : -1;
    auto emitJumpTo = [&](isa::Mnemonic mn, isa::Cond cond,
                          int target) -> Status {
      const size_t start = code.size();
      isa::Instruction j = isa::makeInstr(mn, 8, isa::Operand::makeImm(0));
      j.cond = cond;
      isa::EncodeInfo info;
      if (Status s = isa::encode(j, start, code, &info); !s) return s;
      blockFixups.push_back(
          {start + static_cast<size_t>(info.rel32Offset), target});
      ++instructions;
      return Status::okStatus();
    };

    switch (block.term.kind) {
      case Terminator::Kind::Ret: {
        if (Status s = isa::encode(isa::makeInstr(isa::Mnemonic::Ret, 8),
                                   code.size(), code);
            !s)
          return s.error();
        ++instructions;
        break;
      }
      case Terminator::Kind::Jmp:
        if (block.term.taken != next)
          if (Status s = emitJumpTo(isa::Mnemonic::Jmp, isa::Cond::O,
                                    block.term.taken);
              !s)
            return s.error();
        break;
      case Terminator::Kind::CondJmp: {
        if (Status s = emitJumpTo(isa::Mnemonic::Jcc, block.term.cond,
                                  block.term.taken);
            !s)
          return s.error();
        if (block.term.fall != next)
          if (Status s = emitJumpTo(isa::Mnemonic::Jmp, isa::Cond::O,
                                    block.term.fall);
              !s)
            return s.error();
        break;
      }
      case Terminator::Kind::Stop:
        break;  // last instruction already transferred control
      case Terminator::Kind::SideExit: {
        // jmp qword ptr [rip+pool]: transfers to the original code at
        // guestTarget without touching any register or flag.
        if (block.term.poolSlot < 0)
          return Error{ErrorCode::InvalidArgument, block.guestAddress,
                       "side exit without a pool slot"};
        const size_t start = code.size();
        isa::MemOperand m;
        m.ripRelative = true;
        m.poolSlot = block.term.poolSlot;
        const isa::Instruction j = isa::makeInstr(
            isa::Mnemonic::JmpInd, 8, isa::Operand::makeMem(m));
        isa::EncodeInfo info;
        if (Status s = isa::encode(j, start, code, &info); !s)
          return s.error();
        if (info.rel32Offset >= 0 && info.isPoolRef)
          poolFixups.push_back({start + static_cast<size_t>(info.rel32Offset),
                                start + info.length, info.poolSlot});
        ++instructions;
        break;
      }
      case Terminator::Kind::None:
        return Error{ErrorCode::InvalidArgument, block.guestAddress,
                     "block without terminator"};
    }
    if (code.size() > maxCodeBytes)
      return Error{ErrorCode::CodeBufferFull, block.guestAddress,
                   "generated code exceeds configured maximum"};
  }

  // Literal pool, 16-byte aligned after the code.
  size_t poolOffset = (code.size() + 15) & ~size_t{15};
  code.resize(poolOffset, 0xCC /* int3 padding */);
  for (const PoolEntry& entry : fn.pool()) {
    const uint8_t* lo = reinterpret_cast<const uint8_t*>(&entry.lo);
    const uint8_t* hi = reinterpret_cast<const uint8_t*>(&entry.hi);
    code.insert(code.end(), lo, lo + 8);
    code.insert(code.end(), hi, hi + 8);
  }

  // Side-exit pool slots hold absolute resume addresses into the original
  // code; record each (deduplicated — addPoolConstant dedups by value, so
  // several blocks may share one slot).
  for (const int id : order) {
    const Terminator& t = fn.block(id).term;
    if (t.kind != Terminator::Kind::SideExit || t.poolSlot < 0) continue;
    const uint32_t off = static_cast<uint32_t>(
        poolOffset + static_cast<size_t>(t.poolSlot) * 16);
    bool seen = false;
    for (const CodeReloc& r : relocs) seen = seen || r.offset == off;
    if (!seen) relocs.push_back(CodeReloc{off, t.guestTarget});
  }

  // Relocation (§III-G last step).
  const uint64_t tReloc0 = telemetry::fastTicks();
  for (const BlockFixup& fixup : blockFixups) {
    const int64_t target = blockOffset[static_cast<size_t>(fixup.targetBlock)];
    if (target < 0)
      return Error{ErrorCode::InvalidArgument, 0, "jump to unplaced block"};
    const int64_t rel = target - (static_cast<int64_t>(fixup.fieldOffset) + 4);
    const auto rel32 = static_cast<int32_t>(rel);
    std::memcpy(code.data() + fixup.fieldOffset, &rel32, 4);
  }
  for (const PoolFixup& fixup : poolFixups) {
    const int64_t target =
        static_cast<int64_t>(poolOffset) + fixup.slot * 16;
    const int64_t rel = target - static_cast<int64_t>(fixup.instrEnd);
    const auto rel32 = static_cast<int32_t>(rel);
    std::memcpy(code.data() + fixup.fieldOffset, &rel32, 4);
  }
  chainTicks += telemetry::fastTicks() - tReloc0;

  // Map next to the function this code stands in for (its callers' window).
  auto mem = ExecMemory::allocate(
      code.size(),
      reinterpret_cast<const void*>(fn.block(fn.entry()).guestAddress));
  if (!mem) return mem.error();
  std::memcpy(mem->writeView(), code.data(), code.size());
  if (Status s = mem->finalize(); !s) return s.error();

  if (stats != nullptr) {
    stats->codeBytes = poolOffset;
    stats->poolBytes = fn.pool().size() * 16;
    stats->instructions = instructions;
    stats->loopLatches = latches;
    stats->chainNs = telemetry::ticksToNs(chainTicks);
    stats->relocs = std::move(relocs);
    stats->portable = portable;
  }
  return std::move(*mem);
}

}  // namespace brew::ir
