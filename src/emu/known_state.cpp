#include "emu/known_state.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace brew::emu {

using isa::Reg;

// --- StackShadow page management -------------------------------------------

namespace {
// Pages cycle through a per-thread freelist: fork-heavy traces allocate and
// drop thousands of pages, and round-tripping each through the global
// allocator would put malloc back on the hot path the flat layout removed.
constexpr size_t kFreeListCap = 1024;
}  // namespace

std::vector<StackShadow::Page*>& StackShadow::freeList() noexcept {
  struct List {
    std::vector<Page*> pages;
    ~List() {
      for (Page* p : pages) ::operator delete(p);
    }
  };
  thread_local List list;
  return list.pages;
}

StackShadow::Page* StackShadow::allocRaw() {
  std::vector<Page*>& list = freeList();
  if (!list.empty()) {
    Page* p = list.back();
    list.pop_back();
    return p;
  }
  return static_cast<Page*>(::operator new(sizeof(Page)));
}

StackShadow::Page* StackShadow::allocZeroed() {
  Page* p = allocRaw();
  p->refs = 1;
  p->knownCount = 0;
  std::memset(p->flags, 0, kPageBytes);
  return p;
}

StackShadow::Page* StackShadow::unshare(Page* shared) {
  Page* p = allocRaw();
  p->refs = 1;
  p->knownCount = shared->knownCount;
  std::memcpy(p->value, shared->value, kPageBytes);
  std::memcpy(p->flags, shared->flags, kPageBytes);
  --shared->refs;
  return p;
}

void StackShadow::release(Page* p) {
  if (--p->refs != 0) return;
  std::vector<Page*>& list = freeList();
  if (list.size() < kFreeListCap) {
    list.push_back(p);
    return;
  }
  ::operator delete(p);
}

// --- StackShadow value semantics -------------------------------------------

StackShadow::StackShadow(const StackShadow& other)
    : pages_(other.pages_),
      firstPage_(other.firstPage_),
      slots_(other.slots_) {
  for (Page* p : pages_)
    if (p != nullptr) ++p->refs;
}

StackShadow& StackShadow::operator=(const StackShadow& other) {
  if (this != &other) {
    for (Page* p : other.pages_)
      if (p != nullptr) ++p->refs;
    releaseAll();
    pages_ = other.pages_;
    firstPage_ = other.firstPage_;
    slots_ = other.slots_;
  }
  return *this;
}

StackShadow::StackShadow(StackShadow&& other) noexcept
    : pages_(std::move(other.pages_)),
      firstPage_(other.firstPage_),
      slots_(std::move(other.slots_)) {
  other.pages_.clear();
  other.firstPage_ = 0;
  other.slots_.clear();
}

StackShadow& StackShadow::operator=(StackShadow&& other) noexcept {
  if (this != &other) {
    releaseAll();
    pages_ = std::move(other.pages_);
    firstPage_ = other.firstPage_;
    slots_ = std::move(other.slots_);
    other.pages_.clear();
    other.firstPage_ = 0;
    other.slots_.clear();
  }
  return *this;
}

StackShadow::~StackShadow() { releaseAll(); }

void StackShadow::releaseAll() noexcept {
  for (Page* p : pages_)
    if (p != nullptr) release(p);
  pages_.clear();
}

StackShadow::Page* StackShadow::pageAt(int64_t pageIdx) const {
  const int64_t rel = pageIdx - firstPage_;
  if (rel < 0 || rel >= static_cast<int64_t>(pages_.size())) return nullptr;
  return pages_[static_cast<size_t>(rel)];
}

StackShadow::Page** StackShadow::slotFor(int64_t pageIdx) {
  if (pages_.empty()) {
    firstPage_ = pageIdx;
    pages_.push_back(nullptr);
    return &pages_[0];
  }
  const int64_t rel = pageIdx - firstPage_;
  if (rel >= 0 && rel < static_cast<int64_t>(pages_.size()))
    return &pages_[static_cast<size_t>(rel)];
  const int64_t newFirst = std::min(firstPage_, pageIdx);
  const int64_t newLast =
      std::max(firstPage_ + static_cast<int64_t>(pages_.size()) - 1, pageIdx);
  if (newLast - newFirst + 1 > kMaxPages) return nullptr;
  if (rel < 0) {
    pages_.insert(pages_.begin(), static_cast<size_t>(-rel), nullptr);
    firstPage_ = pageIdx;
    return &pages_[0];
  }
  pages_.resize(static_cast<size_t>(rel) + 1, nullptr);
  return &pages_[static_cast<size_t>(rel)];
}

Value StackShadow::read(int64_t offset, unsigned width) const {
  if (width == 8) {
    auto it = std::lower_bound(
        slots_.begin(), slots_.end(), offset,
        [](const auto& s, int64_t off) { return s.first < off; });
    if (it != slots_.end() && it->first == offset) return it->second;
  }
  uint64_t bits = 0;
  bool materialized = true;
  unsigned i = 0;
  while (i < width) {
    const int64_t at = offset + static_cast<int64_t>(i);
    const unsigned inPage = static_cast<unsigned>(at & (kPageBytes - 1));
    const unsigned run =
        std::min(width - i, static_cast<unsigned>(kPageBytes) - inPage);
    const Page* p = pageAt(at >> kPageShift);
    if (p == nullptr) return Value::unknown();
    for (unsigned j = 0; j < run; ++j) {
      const uint8_t f = p->flags[inPage + j];
      if (!(f & kKnownBit)) return Value::unknown();
      const unsigned shift = 8 * (i + j);
      if (shift < 64) bits |= static_cast<uint64_t>(p->value[inPage + j]) << shift;
      materialized = materialized && (f & kMaterializedBit) != 0;
    }
    i += run;
  }
  return Value::known(bits, materialized);
}

void StackShadow::invalidateSlotsOverlapping(int64_t offset, unsigned width) {
  // StackRel slots are 8 bytes wide starting at their key.
  auto first = std::lower_bound(
      slots_.begin(), slots_.end(), offset - 7,
      [](const auto& s, int64_t off) { return s.first < off; });
  auto last = first;
  while (last != slots_.end() &&
         last->first < offset + static_cast<int64_t>(width))
    ++last;
  slots_.erase(first, last);
}

void StackShadow::eraseRange(int64_t offset, unsigned width) {
  unsigned i = 0;
  while (i < width) {
    const int64_t at = offset + static_cast<int64_t>(i);
    const unsigned inPage = static_cast<unsigned>(at & (kPageBytes - 1));
    const unsigned run =
        std::min(width - i, static_cast<unsigned>(kPageBytes) - inPage);
    const int64_t pageIdx = at >> kPageShift;
    Page* p = pageAt(pageIdx);
    if (p != nullptr) {
      bool any = false;
      for (unsigned j = 0; j < run && !any; ++j)
        any = (p->flags[inPage + j] & kKnownBit) != 0;
      if (any) {
        Page** slot = slotFor(pageIdx);
        if ((*slot)->refs > 1) *slot = unshare(*slot);
        p = *slot;
        for (unsigned j = 0; j < run; ++j) {
          if (p->flags[inPage + j] & kKnownBit) {
            p->flags[inPage + j] = 0;
            --p->knownCount;
          }
        }
        if (p->knownCount == 0) {
          release(p);
          *slot = nullptr;
        }
      }
    }
    i += run;
  }
}

void StackShadow::write(int64_t offset, unsigned width, const Value& value) {
  invalidateSlotsOverlapping(offset, width);
  if (value.isStackRel()) {
    // Byte-wise representation is impossible; track 8-byte spills in the
    // side table, degrade anything else to unknown bytes.
    eraseRange(offset, width);
    if (width == 8) {
      auto it = std::lower_bound(
          slots_.begin(), slots_.end(), offset,
          [](const auto& s, int64_t off) { return s.first < off; });
      if (it != slots_.end() && it->first == offset)
        it->second = value;
      else
        slots_.insert(it, {offset, value});
    }
    return;
  }
  if (!value.isKnown()) {
    eraseRange(offset, width);  // unknown: runtime owns the bytes
    return;
  }
  const uint8_t flagBits = static_cast<uint8_t>(
      kKnownBit | (value.materialized ? kMaterializedBit : 0));
  unsigned i = 0;
  while (i < width) {
    const int64_t at = offset + static_cast<int64_t>(i);
    const unsigned inPage = static_cast<unsigned>(at & (kPageBytes - 1));
    const unsigned run =
        std::min(width - i, static_cast<unsigned>(kPageBytes) - inPage);
    Page** slot = slotFor(at >> kPageShift);
    if (slot != nullptr) {
      Page* p = *slot;
      if (p == nullptr) {
        p = allocZeroed();
        *slot = p;
      } else if (p->refs > 1) {
        p = unshare(p);
        *slot = p;
      }
      for (unsigned j = 0; j < run; ++j) {
        const unsigned shift = 8 * (i + j);
        if (!(p->flags[inPage + j] & kKnownBit)) ++p->knownCount;
        p->flags[inPage + j] = flagBits;
        p->value[inPage + j] =
            shift < 64 ? static_cast<uint8_t>(value.bits >> shift) : 0;
      }
    }
    // Outside the span cap the bytes simply stay unknown — always a safe
    // degradation for the known-world model.
    i += run;
  }
}

void StackShadow::clobber() {
  releaseAll();
  firstPage_ = 0;
  slots_.clear();
}

void StackShadow::clobberBelow(int64_t offset) {
  // An 8-byte slot starting below the boundary overlaps the dead zone.
  auto slotEnd = slots_.begin();
  while (slotEnd != slots_.end() && slotEnd->first < offset) ++slotEnd;
  slots_.erase(slots_.begin(), slotEnd);

  if (pages_.empty()) return;
  const int64_t boundaryPage = offset >> kPageShift;
  size_t drop = 0;
  while (drop < pages_.size() &&
         firstPage_ + static_cast<int64_t>(drop) < boundaryPage) {
    if (pages_[drop] != nullptr) release(pages_[drop]);
    ++drop;
  }
  if (drop > 0) {
    pages_.erase(pages_.begin(), pages_.begin() + static_cast<long>(drop));
    firstPage_ += static_cast<int64_t>(drop);
  }
  // The straddling page keeps bytes at/above the boundary only.
  const unsigned inPage = static_cast<unsigned>(offset & (kPageBytes - 1));
  if (inPage == 0) return;
  Page* p = pageAt(boundaryPage);
  if (p == nullptr) return;
  bool any = false;
  for (unsigned j = 0; j < inPage && !any; ++j)
    any = (p->flags[j] & kKnownBit) != 0;
  if (!any) return;
  Page** slot = slotFor(boundaryPage);
  if ((*slot)->refs > 1) *slot = unshare(*slot);
  p = *slot;
  for (unsigned j = 0; j < inPage; ++j) {
    if (p->flags[j] & kKnownBit) {
      p->flags[j] = 0;
      --p->knownCount;
    }
  }
  if (p->knownCount == 0) {
    release(p);
    *slot = nullptr;
  }
}

bool StackShadow::sameContent(const StackShadow& other) const {
  if (slots_.size() != other.slots_.size()) return false;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].first != other.slots_[i].first ||
        !slots_[i].second.sameContent(other.slots_[i].second))
      return false;
  }
  // Compare known bytes only (unknown bytes have no page entry). Pages
  // shared between the two states (the common case right after a fork)
  // compare equal by pointer identity without touching their bytes.
  if (pages_.empty() && other.pages_.empty()) return true;
  const int64_t lo = std::min(pages_.empty() ? other.firstPage_ : firstPage_,
                              other.pages_.empty() ? firstPage_
                                                   : other.firstPage_);
  const int64_t hiA = firstPage_ + static_cast<int64_t>(pages_.size());
  const int64_t hiB = other.firstPage_ + static_cast<int64_t>(other.pages_.size());
  const int64_t hi = std::max(pages_.empty() ? hiB : hiA,
                              other.pages_.empty() ? hiA : hiB);
  for (int64_t pageIdx = lo; pageIdx < hi; ++pageIdx) {
    const Page* a = pageAt(pageIdx);
    const Page* b = other.pageAt(pageIdx);
    if (a == b) continue;
    for (int j = 0; j < kPageBytes; ++j) {
      const bool ka = a != nullptr && (a->flags[j] & kKnownBit);
      const bool kb = b != nullptr && (b->flags[j] & kKnownBit);
      if (ka != kb) return false;
      if (ka && a->value[j] != b->value[j]) return false;
    }
  }
  return true;
}

namespace {
void hashMix(uint64_t& hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
}
void hashValue(uint64_t& hash, const Value& value) {
  hashMix(hash, static_cast<uint64_t>(value.tag));
  if (!value.isUnknown()) hashMix(hash, value.bits);
}
}  // namespace

// --- KnownWorldState -------------------------------------------------------

KnownWorldState::KnownWorldState() {
  for (auto& v : gpr_) v = Value::unknown();
  for (auto& x : xmm_) x = XmmValue::unknown();
  // rsp at entry is the frame base.
  gpr_[static_cast<int>(Reg::rsp)] = Value::stackRel(0);
}

Value& KnownWorldState::gpr(Reg r) {
  assert(isa::isGpr(r));
  return gpr_[isa::regNum(r)];
}
const Value& KnownWorldState::gpr(Reg r) const {
  assert(isa::isGpr(r));
  return gpr_[isa::regNum(r)];
}
XmmValue& KnownWorldState::xmm(Reg r) {
  assert(isa::isXmm(r));
  return xmm_[isa::regNum(r)];
}
const XmmValue& KnownWorldState::xmm(Reg r) const {
  assert(isa::isXmm(r));
  return xmm_[isa::regNum(r)];
}

void KnownWorldState::applyCallClobbers(bool clobberStack) {
  for (unsigned i = 0; i < 16; ++i) {
    const Reg r = isa::gprFromNum(i);
    if (isa::abi::isCallerSaved(r)) gpr_[i] = Value::unknown();
  }
  for (auto& x : xmm_) x = XmmValue::unknown();
  flags_.clobber();
  if (clobberStack) stack_.clobber();
}

bool KnownWorldState::sameContent(const KnownWorldState& other) const {
  for (unsigned i = 0; i < 16; ++i) {
    if (!gpr_[i].sameContent(other.gpr_[i])) return false;
    if (!xmm_[i].sameContent(other.xmm_[i])) return false;
  }
  if (flags_.known != other.flags_.known) return false;
  if ((flags_.values & flags_.known) !=
      (other.flags_.values & other.flags_.known))
    return false;
  if (callStack_.size() != other.callStack_.size()) return false;
  for (size_t i = 0; i < callStack_.size(); ++i) {
    if (callStack_[i].returnAddress != other.callStack_[i].returnAddress)
      return false;
  }
  return stack_.sameContent(other.stack_);
}

uint64_t KnownWorldState::quickDigest() const {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned i = 0; i < 16; ++i) {
    hashValue(hash, gpr_[i]);
    hashValue(hash, xmm_[i].lo);
    hashValue(hash, xmm_[i].hi);
  }
  hashMix(hash, flags_.known);
  hashMix(hash, flags_.values & flags_.known);
  for (const CallFrame& frame : callStack_) hashMix(hash, frame.returnAddress);
  return hash;
}

// --- Reconvergence meet ----------------------------------------------------

namespace {
const Value* slotAt(const StackShadow& shadow, int64_t offset) {
  for (const auto& [off, value] : shadow.stackRelSlots())
    if (off == offset) return &value;
  return nullptr;
}

// Meet of one value pair: can the pending side drop `a` without appended
// compensation, and does the incoming side need one? Returns false when
// the drop is unsound (pending-side fact not in the runtime register).
bool meetValue(const Value& a, const Value& b, bool& needIncomingFix) {
  if (a.sameContent(b)) return true;
  if (!a.isUnknown() && !a.materialized) return false;
  if (!b.isUnknown() && !b.materialized) needIncomingFix = true;
  return true;
}
}  // namespace

IntersectPlan planIntersect(const KnownWorldState& pending,
                            const KnownWorldState& incoming) {
  IntersectPlan plan;
  // Inlined-call frames cannot be merged away: a ret in the merged block
  // must resume at one exact address per frame.
  const std::vector<CallFrame>& fa = pending.callStack();
  const std::vector<CallFrame>& fb = incoming.callStack();
  if (fa.size() != fb.size()) return plan;
  for (size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].returnAddress != fb[i].returnAddress ||
        fa[i].callerFunction != fb[i].callerFunction ||
        fa[i].calleeEntry != fb[i].calleeEntry ||
        fa[i].entrySpOffset != fb[i].entrySpOffset)
      return plan;
  }
  // rsp anchors every stack fact; a disagreeing frame pointer has no
  // sound meet.
  if (!pending.gpr(Reg::rsp).sameContent(incoming.gpr(Reg::rsp))) return plan;
  for (unsigned i = 0; i < 16; ++i) {
    bool fix = false;
    if (!meetValue(pending.gpr(isa::gprFromNum(i)),
                   incoming.gpr(isa::gprFromNum(i)), fix))
      return plan;
    if (fix) plan.materializeGprs |= 1u << i;
  }
  for (unsigned i = 0; i < 16; ++i) {
    const XmmValue& a = pending.xmm(isa::xmmFromNum(i));
    const XmmValue& b = incoming.xmm(isa::xmmFromNum(i));
    bool fix = false;
    if (!meetValue(a.lo, b.lo, fix) || !meetValue(a.hi, b.hi, fix))
      return plan;
    if (fix) plan.materializeXmms |= 1u << i;
  }
  // Disagreeing flags meet to "clobbered" = unknown-but-real runtime
  // flags; that is only true when neither side elided its last flag
  // writer.
  const FlagsState& flA = pending.flags();
  const FlagsState& flB = incoming.flags();
  const bool flagsEqual = flA.known == flB.known &&
                          (flA.values & flA.known) == (flB.values & flB.known);
  if (!flagsEqual && (!flA.materialized || !flB.materialized)) return plan;
  // Stack bytes and StackRel slots: a dropped fact must be materialized on
  // the side that knew it — there is no register to compensate through.
  // (Captured stores always materialize, so this near-always holds.)
  bool ok = true;
  pending.stack().forEachKnownByte([&](int64_t off, uint8_t byte, bool mat) {
    if (!ok) return;
    const Value other = incoming.stack().read(off, 1);
    if (other.isKnown() && static_cast<uint8_t>(other.bits) == byte) return;
    if (!mat) ok = false;
  });
  if (!ok) return plan;
  incoming.stack().forEachKnownByte([&](int64_t off, uint8_t byte, bool mat) {
    if (!ok) return;
    const Value other = pending.stack().read(off, 1);
    if (other.isKnown() && static_cast<uint8_t>(other.bits) == byte) return;
    if (!mat) ok = false;
  });
  if (!ok) return plan;
  for (const auto& [off, value] : pending.stack().stackRelSlots()) {
    const Value* other = slotAt(incoming.stack(), off);
    if (other != nullptr && value.sameContent(*other)) continue;
    if (!value.materialized) return plan;
  }
  for (const auto& [off, value] : incoming.stack().stackRelSlots()) {
    const Value* other = slotAt(pending.stack(), off);
    if (other != nullptr && value.sameContent(*other)) continue;
    if (!value.materialized) return plan;
  }
  plan.feasible = true;
  return plan;
}

void KnownWorldState::intersectWith(const KnownWorldState& incoming) {
  auto meet = [](Value& a, const Value& b) {
    if (a.sameContent(b))
      a.materialized = a.materialized && b.materialized;
    else
      a = Value::unknown();
  };
  for (unsigned i = 0; i < 16; ++i) {
    meet(gpr_[i], incoming.gpr_[i]);
    meet(xmm_[i].lo, incoming.xmm_[i].lo);
    meet(xmm_[i].hi, incoming.xmm_[i].hi);
  }
  if (flags_.known == incoming.flags_.known &&
      (flags_.values & flags_.known) ==
          (incoming.flags_.values & incoming.flags_.known)) {
    flags_.materialized = flags_.materialized && incoming.flags_.materialized;
  } else {
    flags_.clobber();
  }
  // Rebuild the shadow as the byte/slot intersection. Bytes and slots
  // never overlap within one shadow, and a byte kept here is known in
  // both, so the two loops cannot collide either.
  StackShadow met;
  stack_.forEachKnownByte([&](int64_t off, uint8_t byte, bool mat) {
    const Value other = incoming.stack_.read(off, 1);
    if (other.isKnown() && static_cast<uint8_t>(other.bits) == byte)
      met.write(off, 1, Value::known(byte, mat && other.materialized));
  });
  for (const auto& [off, value] : stack_.stackRelSlots()) {
    const Value* other = slotAt(incoming.stack_, off);
    if (other != nullptr && value.sameContent(*other)) {
      Value kept = value;
      kept.materialized = value.materialized && other->materialized;
      met.write(off, 8, kept);
    }
  }
  stack_ = std::move(met);
  // callStack_ is identical on both sides by planIntersect's contract.
}

}  // namespace brew::emu
