// Known-world-state unit tests: stack shadow byte tracking, StackRel slot
// spills, content identity/digests, ABI clobber application, and
// randomized differential checks of the paged COW shadow against a
// per-byte reference model (the representation it replaced).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "emu/known_state.hpp"

namespace brew::emu {
namespace {

using isa::Reg;

TEST(StackShadowTest, ByteGranularReadback) {
  StackShadow shadow;
  shadow.write(-16, 8, Value::known(0x1122334455667788ull));
  EXPECT_TRUE(shadow.read(-16, 8).isKnown());
  EXPECT_EQ(shadow.read(-16, 8).bits, 0x1122334455667788ull);
  // Partial reads assemble from bytes.
  EXPECT_EQ(shadow.read(-16, 4).bits, 0x55667788ull);
  EXPECT_EQ(shadow.read(-12, 4).bits, 0x11223344ull);
  EXPECT_EQ(shadow.read(-14, 2).bits, 0x5566ull);
  // Reads crossing into untracked bytes are unknown.
  EXPECT_TRUE(shadow.read(-18, 4).isUnknown());
  EXPECT_TRUE(shadow.read(-12, 8).isUnknown());
}

TEST(StackShadowTest, OverlappingWriteUpdatesBytes) {
  StackShadow shadow;
  shadow.write(-8, 8, Value::known(0xAAAAAAAAAAAAAAAAull));
  shadow.write(-6, 2, Value::known(0x1234));
  // Offset -6 is byte 2 of the qword at -8: bits 16..31.
  EXPECT_EQ(shadow.read(-8, 8).bits, 0xAAAAAAAA1234AAAAull);
}

TEST(StackShadowTest, UnknownWriteErasesKnowledge) {
  StackShadow shadow;
  shadow.write(-8, 8, Value::known(42));
  shadow.write(-8, 4, Value::unknown());
  EXPECT_TRUE(shadow.read(-8, 8).isUnknown());
  EXPECT_TRUE(shadow.read(-8, 4).isUnknown());
  EXPECT_TRUE(shadow.read(-4, 4).isKnown());  // upper half still known
}

TEST(StackShadowTest, StackRelSlotRoundTrip) {
  StackShadow shadow;
  shadow.write(-24, 8, Value::stackRel(-128, true));
  const Value v = shadow.read(-24, 8);
  ASSERT_TRUE(v.isStackRel());
  EXPECT_EQ(v.stackOffset(), -128);
  // Narrow reads of a pointer spill are unknown (no byte representation).
  EXPECT_TRUE(shadow.read(-24, 4).isUnknown());
}

TEST(StackShadowTest, OverlapKillsStackRelSlot) {
  StackShadow shadow;
  shadow.write(-24, 8, Value::stackRel(-128, true));
  shadow.write(-20, 1, Value::known(7));  // overlaps the slot
  EXPECT_TRUE(shadow.read(-24, 8).isUnknown());
}

TEST(StackShadowTest, ClobberBelow) {
  StackShadow shadow;
  shadow.write(-32, 8, Value::known(1));
  shadow.write(-16, 8, Value::known(2));
  shadow.write(-40, 8, Value::stackRel(0, true));
  shadow.clobberBelow(-16);
  EXPECT_TRUE(shadow.read(-32, 8).isUnknown());
  EXPECT_TRUE(shadow.read(-40, 8).isUnknown());
  EXPECT_TRUE(shadow.read(-16, 8).isKnown());
}

TEST(KnownWorldStateTest, InitialState) {
  KnownWorldState state;
  EXPECT_TRUE(state.gpr(Reg::rax).isUnknown());
  ASSERT_TRUE(state.gpr(Reg::rsp).isStackRel());
  EXPECT_EQ(state.gpr(Reg::rsp).stackOffset(), 0);
  EXPECT_TRUE(state.gpr(Reg::rsp).materialized);
  EXPECT_EQ(state.flags().known, 0);
  EXPECT_TRUE(state.flags().materialized);
}

TEST(KnownWorldStateTest, ContentIdentityIgnoresMaterialization) {
  KnownWorldState a, b;
  a.gpr(Reg::rbx) = Value::known(42, /*materialized=*/true);
  b.gpr(Reg::rbx) = Value::known(42, /*materialized=*/false);
  EXPECT_TRUE(a.sameContent(b));
  EXPECT_EQ(a.quickDigest(), b.quickDigest());
  b.gpr(Reg::rbx) = Value::known(43);
  EXPECT_FALSE(a.sameContent(b));
  EXPECT_NE(a.quickDigest(), b.quickDigest());
}

// Variant lookup prefilters on quickDigest (registers, flags, call stack)
// and decides on sameContent, which alone sees the stack shadow.
TEST(KnownWorldStateTest, DigestSensitivity) {
  KnownWorldState a, b;
  EXPECT_EQ(a.quickDigest(), b.quickDigest());
  EXPECT_TRUE(a.sameContent(b));
  b.xmm(Reg::xmm3).lo = Value::known(0x3FF0000000000000ull);
  EXPECT_NE(a.quickDigest(), b.quickDigest());
  EXPECT_FALSE(a.sameContent(b));

  KnownWorldState c, d;
  c.flags().setAll(isa::kFlagZF, isa::kFlagZF, false);
  EXPECT_NE(c.quickDigest(), d.quickDigest());
  EXPECT_FALSE(c.sameContent(d));

  KnownWorldState e, f;
  e.stack().write(-8, 8, Value::known(1));
  EXPECT_EQ(e.quickDigest(), f.quickDigest());
  EXPECT_FALSE(e.sameContent(f));

  KnownWorldState g, h;
  g.callStack().push_back(CallFrame{0x1234, 0, 0, -8});
  EXPECT_NE(g.quickDigest(), h.quickDigest());
  EXPECT_FALSE(g.sameContent(h));
}

TEST(KnownWorldStateTest, CallClobbers) {
  KnownWorldState state;
  state.gpr(Reg::rax) = Value::known(1);
  state.gpr(Reg::rbx) = Value::known(2);   // callee-saved
  state.gpr(Reg::r12) = Value::known(3);   // callee-saved
  state.gpr(Reg::r10) = Value::known(4);   // caller-saved
  state.xmm(Reg::xmm5).lo = Value::known(5);
  state.flags().setAll(isa::kAllFlags, isa::kFlagZF, true);
  state.stack().write(-8, 8, Value::known(6));

  state.applyCallClobbers(/*clobberStack=*/false);
  EXPECT_TRUE(state.gpr(Reg::rax).isUnknown());
  EXPECT_TRUE(state.gpr(Reg::r10).isUnknown());
  EXPECT_TRUE(state.gpr(Reg::rbx).isKnown());
  EXPECT_TRUE(state.gpr(Reg::r12).isKnown());
  EXPECT_TRUE(state.xmm(Reg::xmm5).lo.isUnknown());
  EXPECT_EQ(state.flags().known, 0);
  EXPECT_TRUE(state.stack().read(-8, 8).isKnown());

  state.applyCallClobbers(/*clobberStack=*/true);
  EXPECT_TRUE(state.stack().read(-8, 8).isUnknown());
}

TEST(KnownWorldStateTest, RspSurvivesClobbers) {
  KnownWorldState state;
  state.gpr(Reg::rsp) = Value::stackRel(-64, true);
  state.applyCallClobbers(true);
  ASSERT_TRUE(state.gpr(Reg::rsp).isStackRel());
  EXPECT_EQ(state.gpr(Reg::rsp).stackOffset(), -64);
}

TEST(ValueTest, Helpers) {
  EXPECT_TRUE(Value::unknown().isUnknown());
  EXPECT_TRUE(Value::known(1).isKnown());
  EXPECT_TRUE(Value::stackRel(-8).isStackRel());
  EXPECT_TRUE(Value::known(5).sameContent(Value::known(5, false)));
  EXPECT_FALSE(Value::known(5).sameContent(Value::stackRel(5)));
  EXPECT_TRUE(Value::unknown().sameContent(Value::unknown()));
}

// ---------------------------------------------------------------------------
// Differential testing of the paged copy-on-write shadow.
//
// RefShadow is the old representation: one map entry per known byte plus a
// side table of StackRel spills. It is deliberately naive — correctness by
// obviousness — and every StackShadow observation (read with its
// materialization, known-byte enumeration, content identity) must agree
// with it across randomized write/clobber/fork sequences.

struct RefShadow {
  struct RefByte {
    uint8_t value = 0;
    bool materialized = true;
  };
  std::map<int64_t, RefByte> bytes;
  std::map<int64_t, Value> slots;

  void invalidateSlots(int64_t offset, unsigned width) {
    auto it = slots.lower_bound(offset - 7);
    while (it != slots.end() &&
           it->first < offset + static_cast<int64_t>(width))
      it = slots.erase(it);
  }
  void eraseBytes(int64_t offset, unsigned width) {
    for (unsigned i = 0; i < width; ++i)
      bytes.erase(offset + static_cast<int64_t>(i));
  }
  Value read(int64_t offset, unsigned width) const {
    if (width == 8) {
      if (auto it = slots.find(offset); it != slots.end()) return it->second;
    }
    uint64_t bits = 0;
    bool materialized = true;
    for (unsigned i = 0; i < width; ++i) {
      auto it = bytes.find(offset + static_cast<int64_t>(i));
      if (it == bytes.end()) return Value::unknown();
      if (8 * i < 64) bits |= static_cast<uint64_t>(it->second.value) << (8 * i);
      materialized = materialized && it->second.materialized;
    }
    return Value::known(bits, materialized);
  }
  void write(int64_t offset, unsigned width, const Value& value) {
    invalidateSlots(offset, width);
    if (value.isStackRel()) {
      eraseBytes(offset, width);
      if (width == 8) slots[offset] = value;
      return;
    }
    if (!value.isKnown()) {
      eraseBytes(offset, width);
      return;
    }
    for (unsigned i = 0; i < width; ++i) {
      const unsigned shift = 8 * i;
      bytes[offset + static_cast<int64_t>(i)] = RefByte{
          shift < 64 ? static_cast<uint8_t>(value.bits >> shift) : uint8_t{0},
          value.materialized};
    }
  }
  void clobber() {
    bytes.clear();
    slots.clear();
  }
  void clobberBelow(int64_t offset) {
    slots.erase(slots.begin(), slots.lower_bound(offset));
    bytes.erase(bytes.begin(), bytes.lower_bound(offset));
  }
  bool sameContent(const RefShadow& other) const {
    if (slots.size() != other.slots.size()) return false;
    for (auto a = slots.begin(), b = other.slots.begin(); a != slots.end();
         ++a, ++b) {
      if (a->first != b->first || !a->second.sameContent(b->second))
        return false;
    }
    if (bytes.size() != other.bytes.size()) return false;
    for (auto a = bytes.begin(), b = other.bytes.begin(); a != bytes.end();
         ++a, ++b) {
      // Materialization is a code-gen property, not content.
      if (a->first != b->first || a->second.value != b->second.value)
        return false;
    }
    return true;
  }
};

// One shadow and its reference, mutated in lock step.
struct ShadowPair {
  StackShadow real;
  RefShadow ref;

  void checkAt(int64_t offset, unsigned width) const {
    const Value got = real.read(offset, width);
    const Value want = ref.read(offset, width);
    ASSERT_TRUE(got.sameContent(want))
        << "read(" << offset << ", " << width << ") diverged";
    if (!want.isUnknown()) {
      ASSERT_EQ(got.materialized, want.materialized)
          << "materialization of read(" << offset << ", " << width << ")";
    }
  }

  // Full-surface agreement: enumeration matches the reference byte map and
  // the slot tables match exactly.
  void checkEnumeration() const {
    std::map<int64_t, RefShadow::RefByte> seen;
    real.forEachKnownByte([&seen](int64_t off, uint8_t value, bool mat) {
      seen[off] = RefShadow::RefByte{value, mat};
    });
    ASSERT_EQ(seen.size(), ref.bytes.size());
    for (const auto& [off, b] : ref.bytes) {
      auto it = seen.find(off);
      ASSERT_NE(it, seen.end()) << "missing known byte at " << off;
      ASSERT_EQ(it->second.value, b.value) << "byte value at " << off;
      ASSERT_EQ(it->second.materialized, b.materialized)
          << "byte materialization at " << off;
    }
    ASSERT_EQ(real.stackRelSlots().size(), ref.slots.size());
    for (const auto& [off, v] : real.stackRelSlots()) {
      auto it = ref.slots.find(off);
      ASSERT_NE(it, ref.slots.end()) << "unexpected slot at " << off;
      ASSERT_TRUE(v.sameContent(it->second)) << "slot value at " << off;
    }
  }
};

// Applies one random mutation to both members of the pair. Offsets cross
// page boundaries (the 256-byte page grid sits inside the ±2KiB range) and
// widths cover byte through XMM stores.
void randomMutation(std::mt19937& rng, ShadowPair& pair) {
  static constexpr unsigned kWidths[] = {1, 2, 4, 8, 16};
  const int64_t offset =
      static_cast<int64_t>(rng() % 4096) - 2048;
  const unsigned width = kWidths[rng() % 5];
  switch (rng() % 7) {
    case 0:
    case 1:
    case 2: {  // known write
      const Value v = Value::known(rng() | (uint64_t{rng()} << 32),
                                   (rng() & 1) != 0);
      pair.real.write(offset, width, v);
      pair.ref.write(offset, width, v);
      break;
    }
    case 3: {  // unknown write
      pair.real.write(offset, width, Value::unknown());
      pair.ref.write(offset, width, Value::unknown());
      break;
    }
    case 4: {  // StackRel spill
      const Value v = Value::stackRel(
          static_cast<int64_t>(rng() % 512) - 256, (rng() & 1) != 0);
      pair.real.write(offset, width, v);
      pair.ref.write(offset, width, v);
      break;
    }
    case 5: {
      pair.real.clobberBelow(offset);
      pair.ref.clobberBelow(offset);
      break;
    }
    default: {  // rare full clobber
      if (rng() % 16 == 0) {
        pair.real.clobber();
        pair.ref.clobber();
      }
      break;
    }
  }
}

TEST(StackShadowDifferential, RandomizedAgainstReferenceModel) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 20; ++round) {
    ShadowPair pair;
    for (int step = 0; step < 400; ++step) {
      randomMutation(rng, pair);
      // Spot-check reads around a random point every step, full
      // enumeration every 50th.
      const int64_t probe = static_cast<int64_t>(rng() % 4096) - 2048;
      for (unsigned width : {1u, 4u, 8u}) pair.checkAt(probe, width);
      if (step % 50 == 49) pair.checkEnumeration();
    }
    pair.checkEnumeration();
  }
}

TEST(StackShadowDifferential, ForkIsolationAndVariantKeys) {
  std::mt19937 rng(987654321);
  for (int round = 0; round < 10; ++round) {
    ShadowPair a;
    for (int step = 0; step < 120; ++step) randomMutation(rng, a);

    // Fork: the COW copy and the deep reference copy...
    ShadowPair b{StackShadow(a.real), a.ref};

    // ...must have identical content (the variant key) and compare equal
    // both ways.
    ASSERT_TRUE(a.real.sameContent(b.real));
    ASSERT_TRUE(b.real.sameContent(a.real));
    b.checkEnumeration();

    // Diverge both sides independently. Writes into one sibling must never
    // show through the shared pages of the other.
    for (int step = 0; step < 120; ++step) {
      randomMutation(rng, a);
      randomMutation(rng, b);
    }
    a.checkEnumeration();
    b.checkEnumeration();

    const bool refSame = a.ref.sameContent(b.ref);
    ASSERT_EQ(a.real.sameContent(b.real), refSame);
    ASSERT_EQ(b.real.sameContent(a.real), refSame);
  }
}

TEST(StackShadowDifferential, MigrationRebuildPreservesContent) {
  // migrateToVariant rebuilds a state by re-adding every known byte and
  // spill slot; the rebuilt shadow must be content-identical.
  std::mt19937 rng(424242);
  for (int round = 0; round < 10; ++round) {
    ShadowPair a;
    for (int step = 0; step < 200; ++step) randomMutation(rng, a);

    StackShadow rebuilt;
    a.real.forEachKnownByte([&rebuilt](int64_t off, uint8_t value, bool mat) {
      rebuilt.write(off, 1, Value::known(value, mat));
    });
    for (const auto& [off, v] : a.real.stackRelSlots())
      rebuilt.write(off, 8, v);

    ASSERT_TRUE(rebuilt.sameContent(a.real));
    ASSERT_TRUE(a.real.sameContent(rebuilt));
  }
}

TEST(StackShadowDifferential, AssignmentReusesBuffersCorrectly) {
  // traceBlock copy-assigns the variant entry state into its working
  // state; assignment over a populated shadow must behave like a fresh
  // copy, not a merge.
  std::mt19937 rng(1357911);
  ShadowPair a, b;
  for (int step = 0; step < 150; ++step) {
    randomMutation(rng, a);
    randomMutation(rng, b);
  }
  b.real = a.real;
  b.ref = a.ref;
  b.checkEnumeration();
  ASSERT_TRUE(a.real.sameContent(b.real));
  // And the assigned-to copy is still COW-isolated from its source.
  for (int step = 0; step < 100; ++step) randomMutation(rng, b);
  a.checkEnumeration();
  b.checkEnumeration();
}

}  // namespace
}  // namespace brew::emu
