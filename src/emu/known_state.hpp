// The "known-world state" of §III-F: for every value location the tracer
// models — 16 GPRs, 16 XMM registers (two 64-bit lanes each), the six
// status flags, the traced function's stack — whether the value is known,
// and if so which bits it holds.
//
// The state is a value type: it is saved when a trace forks at an unknown
// conditional branch and restored when the corresponding pending block is
// traced. Block variants are keyed by the content of this state
// (sameContent, prefiltered by quickDigest).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "emu/value.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"

namespace brew::emu {

struct FlagsState {
  uint8_t known = 0;   // kFlag* bits whose values are known
  uint8_t values = 0;  // their values (only meaningful where known)
  // True when the runtime RFLAGS at this point actually reflect the modeled
  // flags (the last flag writer was captured, or nothing wrote flags yet).
  // An elided flag writer leaves known-but-stale runtime flags; those can
  // be folded but never consumed by captured code.
  bool materialized = true;

  void setAll(uint8_t knownMask, uint8_t valueBits, bool mat) {
    known = knownMask;
    values = static_cast<uint8_t>(valueBits & knownMask);
    materialized = mat;
  }
  void clobber() {
    known = 0;
    materialized = true;  // unknown runtime flags are trivially "real"
  }
  bool isKnown(uint8_t mask) const { return (known & mask) == mask; }
};

struct XmmValue {
  Value lo, hi;

  static XmmValue unknown() { return {Value::unknown(), Value::unknown()}; }
  bool sameContent(const XmmValue& other) const {
    return lo.sameContent(other.lo) && hi.sameContent(other.hi);
  }
};

// Byte-granular shadow of the traced function's stack. Offsets are relative
// to the frame base: rsp at entry = 0, the function's own frame grows
// negative. Nonnegative offsets belong to the caller (return address, stack
// arguments) and read as unknown.
//
// Storage is a memcheck-style page table of flat 256-byte shadow chunks
// rather than a per-byte tree: a directory of page pointers (indexed by
// offset>>8 relative to a floating base) where each page carries a value
// byte and a flags byte per stack byte. Pages are refcounted and shared
// copy-on-write across the deep state copies the tracer takes at every
// unknown-branch fork and variant snapshot — copying a StackShadow copies
// the directory and bumps refcounts; the first write to a shared page
// clones just that page. Refcounts are plain (non-atomic) because a
// KnownWorldState never crosses threads: every rewrite's tracer, pending
// queue and variants live on one thread.
class StackShadow {
 public:
  StackShadow() = default;
  StackShadow(const StackShadow& other);
  StackShadow& operator=(const StackShadow& other);
  StackShadow(StackShadow&& other) noexcept;
  StackShadow& operator=(StackShadow&& other) noexcept;
  ~StackShadow();

  // Reads `width` bytes; Known only if all bytes are known. An 8-byte read
  // that exactly matches a spilled StackRel slot returns that value.
  Value read(int64_t offset, unsigned width) const;

  void write(int64_t offset, unsigned width, const Value& value);
  // Everything becomes unknown (e.g. opaque call could have written).
  void clobber();
  // Bytes strictly below `offset` become unknown (a kept call pushes its
  // own frames there, and the red zone below rsp is dead across calls).
  void clobberBelow(int64_t offset);

  bool sameContent(const StackShadow& other) const;

  // Enumeration for state migration and tests: invokes
  // f(offset, value, materialized) for every known byte, ascending offset.
  template <typename F>
  void forEachKnownByte(F&& f) const {
    for (size_t pi = 0; pi < pages_.size(); ++pi) {
      const Page* p = pages_[pi];
      if (p == nullptr || p->knownCount == 0) continue;
      const int64_t base =
          (firstPage_ + static_cast<int64_t>(pi)) * kPageBytes;
      for (int i = 0; i < kPageBytes; ++i) {
        if (p->flags[i] & kKnownBit)
          f(base + i, p->value[i], (p->flags[i] & kMaterializedBit) != 0);
      }
    }
  }

  // 8-byte-aligned spills of StackRel values (e.g. a saved frame pointer);
  // these cannot be represented byte-wise. Any overlapping write kills
  // them. Sorted ascending by offset.
  const std::vector<std::pair<int64_t, Value>>& stackRelSlots() const {
    return slots_;
  }

 private:
  static constexpr int kPageShift = 8;
  static constexpr int kPageBytes = 1 << kPageShift;
  static constexpr uint8_t kKnownBit = 1;
  static constexpr uint8_t kMaterializedBit = 2;
  // Directory span cap (pages): a write landing so far from the existing
  // span that covering both would exceed this degrades to "unknown" —
  // always a safe direction for the known-world model — instead of
  // allocating an absurd directory. 2^16 pages = a 16MiB frame span,
  // far beyond any real frame the tracer sees.
  static constexpr int64_t kMaxPages = int64_t{1} << 16;

  struct Page {
    uint32_t refs = 1;        // plain: states never cross threads
    uint32_t knownCount = 0;  // known bytes in this page; 0 frees the page
    uint8_t value[kPageBytes];
    uint8_t flags[kPageBytes];  // kKnownBit | kMaterializedBit per byte
  };

  static std::vector<Page*>& freeList() noexcept;
  static Page* allocRaw();
  static Page* allocZeroed();
  static Page* unshare(Page* shared);  // clone; caller installs the clone
  static void release(Page* p);

  Page* pageAt(int64_t pageIdx) const;
  // Directory slot for pageIdx, growing the directory as needed; nullptr
  // when the span cap would be exceeded.
  Page** slotFor(int64_t pageIdx);
  void eraseRange(int64_t offset, unsigned width);
  void invalidateSlotsOverlapping(int64_t offset, unsigned width);
  void releaseAll() noexcept;

  // pages_[i] shadows offsets [(firstPage_+i)*256, (firstPage_+i+1)*256).
  // A null entry (or an offset outside the span) is all-unknown.
  std::vector<Page*> pages_;
  int64_t firstPage_ = 0;
  std::vector<std::pair<int64_t, Value>> slots_;
};

// One inlined-call frame on the shadow call stack (§III-E): where `ret`
// should resume tracing, whose per-function options to restore on return,
// and where the callee's frame begins. Stack accesses at or above
// `entrySpOffset` would touch the return-address slot or stack arguments,
// which do not exist in the inlined layout — the tracer fails the rewrite
// (NonInlinableCall) when it sees one.
struct CallFrame {
  uint64_t returnAddress = 0;
  uint64_t callerFunction = 0;  // options of this function resume on ret
  uint64_t calleeEntry = 0;
  int64_t entrySpOffset = 0;
};

class KnownWorldState {
 public:
  KnownWorldState();

  Value& gpr(isa::Reg r);
  const Value& gpr(isa::Reg r) const;
  XmmValue& xmm(isa::Reg r);
  const XmmValue& xmm(isa::Reg r) const;

  FlagsState& flags() { return flags_; }
  const FlagsState& flags() const { return flags_; }

  StackShadow& stack() { return stack_; }
  const StackShadow& stack() const { return stack_; }

  std::vector<CallFrame>& callStack() { return callStack_; }
  const std::vector<CallFrame>& callStack() const { return callStack_; }

  // ABI clobber at a kept (non-inlined) call: caller-saved registers and
  // all flags become unknown; callee-saved keep their known-state. Memory
  // below rsp and any unknown-address memory may have changed, so the
  // shadow stack is clobbered conservatively unless the callee is known
  // to be pure.
  void applyCallClobbers(bool clobberStack);

  // Content identity (ignores materialization), used for block-variant
  // keying and migration.
  bool sameContent(const KnownWorldState& other) const;
  // Register-only digest (GPRs, XMM lanes, flags, call stack): a cheap
  // prefilter for variant lookup that skips the per-byte stack walk.
  // Equal quickDigests still need sameContent.
  uint64_t quickDigest() const;

  // Weakens *this to the meet with `incoming`: facts the two states agree
  // on survive (materialized only if materialized in both), everything
  // else drops to unknown. Callers must have validated feasibility with
  // planIntersect first — the meet itself never fails.
  void intersectWith(const KnownWorldState& incoming);

 private:
  Value gpr_[16];
  XmmValue xmm_[16];
  FlagsState flags_;
  StackShadow stack_;
  std::vector<CallFrame> callStack_;
};

// Reconvergence merge feasibility (§ docs/BLOCKS.md). `pending` is the
// entry state of a queued, not-yet-traced block; `incoming` is the state
// on the edge the tracer is about to close. The meet is sound only when
// every fact it drops is already reflected in the runtime machine state
// on the edge that knew it: the pending edge's code is final (nothing can
// be appended there), so its dropped facts must be materialized; the
// incoming edge can still be compensated, so its unmaterialized facts are
// returned as bitmasks for the tracer to materialize into the current
// block before jumping.
struct IntersectPlan {
  uint32_t materializeGprs = 0;  // incoming-side GPRs needing a fix-up mov
  uint32_t materializeXmms = 0;  // incoming-side XMMs needing lane fix-ups
  bool feasible = false;
};

IntersectPlan planIntersect(const KnownWorldState& pending,
                            const KnownWorldState& incoming);

}  // namespace brew::emu
