// Captured-code IR: the rewriter's output before final binary emission.
//
// A CapturedFunction is a small CFG of blocks of decoded-form instructions
// (§III-G: "captured instructions are kept in decoded form"). Terminators
// reference successor blocks by id; the emitter lays blocks out (preferring
// fall-through), encodes, and relocates intra-function jumps. Floating-point
// and 64-bit constants the rewriter materializes live in a per-function
// literal pool addressed RIP-relatively.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"
#include "support/exec_memory.hpp"

namespace brew::ir {

// Captured instructions are bump-allocated from the owning function's
// arena (a default-constructed vector falls back to the heap, so blocks
// synthesized outside a CapturedFunction keep working).
using InstrVec =
    std::vector<isa::Instruction, support::ArenaAllocator<isa::Instruction>>;

struct Terminator {
  enum class Kind : uint8_t {
    None,     // block under construction
    Ret,
    Jmp,      // unconditional to `taken`
    CondJmp,  // jcc `cond` to `taken`, else fall through to `fall`
    Stop,     // control already left via the block's last instruction
              // (kept tail call: jmp to external code)
    SideExit, // indirect jmp through pool slot `poolSlot` back into the
              // original code at `guestTarget` (fork-depth cap reached);
              // the preceding code has fully materialized the known state
  };
  Kind kind = Kind::None;
  isa::Cond cond = isa::Cond::O;
  int taken = -1;
  int fall = -1;
  int poolSlot = -1;         // SideExit: pool slot holding guestTarget
  uint64_t guestTarget = 0;  // SideExit: original-code resume address
};

struct Block {
  InstrVec instrs;
  Terminator term;
  // Provenance for diagnostics and tests.
  uint64_t guestAddress = 0;
  uint64_t stateDigest = 0;
};

// Registers a `ret` hands back to its caller as live (isa::regBit mask):
// rsp and the callee-saved GPRs, plus rax/rdx when `intReturn` and xmm0
// when `sseReturn`. Register liveness in the passes starts from this set.
constexpr uint32_t liveAtRetMask(bool intReturn, bool sseReturn) {
  uint32_t mask = 0;
  for (unsigned i = 0; i < 16; ++i)
    if (isa::abi::isCalleeSaved(isa::gprFromNum(i))) mask |= 1u << i;
  if (intReturn)
    mask |= isa::regBit(isa::Reg::rax) | isa::regBit(isa::Reg::rdx);
  if (sseReturn) mask |= isa::regBit(isa::abi::kSseReturn);
  return mask;
}

// 16-byte literal pool entry (low half carries scalar constants).
struct PoolEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const PoolEntry&) const = default;
};

class CapturedFunction {
 public:
  int newBlock(uint64_t guestAddress, uint64_t stateDigest);
  Block& block(int id) { return blocks_[static_cast<size_t>(id)]; }
  const Block& block(int id) const { return blocks_[static_cast<size_t>(id)]; }
  int blockCount() const { return static_cast<int>(blocks_.size()); }
  std::vector<Block>& blocks() { return blocks_; }
  const std::vector<Block>& blocks() const { return blocks_; }

  int entry() const { return entry_; }
  void setEntry(int id) { entry_ = id; }

  // Returns the slot index of a (deduplicated) pool constant.
  int addPoolConstant(uint64_t lo, uint64_t hi = 0);
  const std::vector<PoolEntry>& pool() const { return pool_; }

  size_t totalInstructions() const;

  // Registers live at every `ret` (see liveAtRetMask). The tracer narrows
  // it by Config::returnKind; hand-built functions keep the scalar-return
  // default: rax, rdx and xmm0 may all carry the result.
  uint32_t liveAtRet() const { return liveAtRet_; }
  void setLiveAtRet(uint32_t mask) { liveAtRet_ = mask; }

  // The per-function instruction arena; newBlock() wires every block's
  // instruction vector to it. Lives (shared) as long as any copy of this
  // function, so cached captured IR stays valid after the rewrite ends.
  support::ArenaAllocator<isa::Instruction> instrAllocator();

  // Human-readable dump (tests, BREW_LOG).
  std::string dump() const;

 private:
  std::shared_ptr<support::Arena> arena_;
  std::vector<Block> blocks_;
  std::vector<PoolEntry> pool_;
  int entry_ = 0;
  uint32_t liveAtRet_ = liveAtRetMask(true, true);
};

// One absolute-address site in an emitted unit. The code itself is
// position independent (intra-function jumps are rel32, the literal pool is
// RIP-relative), so these are the only fields the persistence layer must
// re-target when a restarted process maps the subject module at a
// different base: 8-byte movabs immediates of kept calls / tail calls /
// injected handlers, and side-exit pool slots holding original-code resume
// addresses.
struct CodeReloc {
  uint32_t offset = 0;  // byte offset of the 8-byte field in the unit
  uint64_t target = 0;  // absolute address the field held at emit time
};

struct EmitStats {
  size_t codeBytes = 0;
  size_t poolBytes = 0;
  size_t instructions = 0;
  // Latch stubs the layout placed right before their loop header
  // (telemetry "emit.loop_latches_placed").
  size_t loopLatches = 0;
  // Time spent wiring blocks together: layout plus the block/pool
  // relocation passes (telemetry "phase.chain_ns").
  uint64_t chainNs = 0;
  // Absolute-address fixups (see CodeReloc). Empty for fully-resolved
  // kernels — those units are byte-portable and eligible for cross-process
  // code-page sharing (docs/CACHE.md).
  std::vector<CodeReloc> relocs;
  // False when an absolute code address was embedded in a form the reloc
  // records cannot express (e.g. a target that happened to fit imm32); the
  // persistence layer then skips the entry instead of writing stale code.
  bool portable = true;
};

// Lays out, encodes and relocates the function into executable memory.
// `maxCodeBytes` bounds the emitted size (ErrorCode::CodeBufferFull).
Result<ExecMemory> emit(const CapturedFunction& fn, size_t maxCodeBytes,
                        EmitStats* stats = nullptr);

// Block ordering used by emit(): entry first, then fall-through chains
// (§III-G "determination of the best order of generated blocks"). A loop's
// latch stub — a block ending in `jmp B` whose only predecessor is B, the
// taken target of B's conditional jump — is placed right before B, so the
// loop runs with one taken branch per iteration.
std::vector<int> layoutOrder(const CapturedFunction& fn);

}  // namespace brew::ir
