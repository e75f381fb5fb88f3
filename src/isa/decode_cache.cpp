#include "isa/decode_cache.hpp"

#include <unordered_map>

#include "isa/decoder.hpp"
#include "support/exec_memory.hpp"
#include "support/telemetry.hpp"

namespace brew::isa {

namespace {

// Direct-mapped front array. Indexed by low address bits so the
// consecutive instructions of a block land in consecutive slots; 2048
// entries cover a 2KiB window of straight-line code before wraparound,
// and wraparound conflicts fall through to the backing map.
constexpr size_t kWays = 2048;

// Backing-map growth bound. A single rewrite decodes at most a few
// thousand distinct addresses; past this something is runaway and the map
// is dropped wholesale (the front array keeps serving the hot window).
constexpr size_t kMaxBackingEntries = 1 << 16;

// Mirrors the decoder's instruction-length bound (decoder.cpp); a decode
// examines at most this many bytes past its start address.
constexpr uint64_t kMaxInstructionLength = 15;

// Hit-path clock sampling period (power of two). One lookup in this many
// pays two clock reads; the measured delta is scaled back up by the same
// factor, so warm traces still report a decode share.
constexpr uint64_t kHitSamplePeriod = 64;

// Cost of the clock itself, measured once per thread. A sampled hit's
// delta spans two nowNs() calls around a ~2ns probe, so the raw reading
// is mostly clock_gettime overhead; scaled by kHitSamplePeriod that used
// to overstate warm-trace phase.decode_ns by roughly an order of
// magnitude. The minimum over a short back-to-back burst is the stable
// per-call floor (larger deltas are interrupts / timer granularity).
uint64_t calibrateClockOverheadNs() noexcept {
  uint64_t best = ~uint64_t{0};
  uint64_t prev = telemetry::nowNs();
  for (int i = 0; i < 64; ++i) {
    const uint64_t now = telemetry::nowNs();
    if (now - prev < best) best = now - prev;
    prev = now;
  }
  return best == ~uint64_t{0} ? 0 : best;
}

struct ThreadCache {
  // tag[i] == 0 means empty; address 0 is never a decodable address.
  uint64_t tag[kWays] = {};
  Instruction entry[kWays];
  std::unordered_map<uint64_t, Instruction> backing;
  uint64_t epoch = 0;
  std::vector<brew::CodeMutation> scratch;
  DecodeCacheStats stats;
  uint64_t clockOverheadNs = calibrateClockOverheadNs();
  uint64_t hitEwmaNsX16 = 0;  // EWMA of corrected samples, x16 fixed point
  // Address watermarks over everything cached (front array + backing).
  // Mutations are installs into generated-code regions, which live far
  // from the static subject code the cache holds; when a mutation batch
  // misses [lo, hi] entirely the per-entry invalidation scan is skipped.
  // Watermarks only widen (invalidation never shrinks them), so the skip
  // is conservative.
  uint64_t loAddr = ~uint64_t{0};
  uint64_t hiAddr = 0;

  void noteCached(uint64_t a) noexcept {
    if (a < loAddr) loAddr = a;
    if (a > hiAddr) hiAddr = a;
  }

  // One corrected hit sample: remove the measured clock cost (floor 1ns —
  // a hit is never free), then smooth with an EWMA (alpha = 1/8) so a
  // single preempted sample cannot inflate an entire 64-hit window.
  uint64_t chargeHitSample(uint64_t rawDeltaNs) noexcept {
    const uint64_t corrected =
        rawDeltaNs > clockOverheadNs ? rawDeltaNs - clockOverheadNs : 1;
    if (hitEwmaNsX16 == 0)
      hitEwmaNsX16 = corrected * 16;
    else
      hitEwmaNsX16 += (static_cast<int64_t>(corrected * 16) -
                       static_cast<int64_t>(hitEwmaNsX16)) / 8;
    return (hitEwmaNsX16 / 16) * kHitSamplePeriod;
  }

  void flushAll() {
    for (auto& t : tag) t = 0;
    backing.clear();
    loAddr = ~uint64_t{0};
    hiAddr = 0;
  }

  // Drops only entries whose bytes a recorded mutation could have changed.
  // A decode at `a` examines at most [a, a+15), so it is stale when that
  // window overlaps the mutated range. Static subject functions survive
  // generated-code churn this way, which is what lets the cache pay off
  // across repeat rewrites.
  void invalidateRanges(const std::vector<brew::CodeMutation>& ranges) {
    if (loAddr > hiAddr) return;  // cache empty
    bool touches = false;
    for (const brew::CodeMutation& m : ranges)
      if (loAddr < m.base + m.size && hiAddr + kMaxInstructionLength > m.base) {
        touches = true;
        break;
      }
    if (!touches) return;
    auto stale = [&ranges](uint64_t a) {
      for (const brew::CodeMutation& m : ranges)
        if (a < m.base + m.size && a + kMaxInstructionLength > m.base)
          return true;
      return false;
    };
    for (auto& t : tag)
      if (t != 0 && stale(t)) t = 0;
    for (auto it = backing.begin(); it != backing.end();) {
      if (stale(it->first))
        it = backing.erase(it);
      else
        ++it;
    }
  }
};

ThreadCache& threadCache() noexcept {
  thread_local ThreadCache cache;
  return cache;
}

// Catches the thread cache up with the global mutation epoch; called once
// per session construction.
void reconcileEpoch(ThreadCache& c) {
  const uint64_t epoch = brew::codeMutationEpoch();
  if (epoch == c.epoch) return;
  c.scratch.clear();
  if (brew::codeMutationsSince(c.epoch, c.scratch)) {
    c.invalidateRanges(c.scratch);
  } else {
    // History evicted: cannot tell what moved, drop everything.
    c.flushAll();
    telemetry::counter(telemetry::CounterId::DecodeCacheFlushes).add();
  }
  c.epoch = epoch;
}

}  // namespace

DecodeSession::DecodeSession() noexcept {
  ThreadCache& c = threadCache();
  reconcileEpoch(c);
  impl_ = &c;
  tag_ = c.tag;
  entry_ = c.entry;
  stats_ = &c.stats;
}

const Instruction* DecodeSession::sampledHit(size_t slot) {
  // The probe already hit; clock a repeat probe as the sample. The reading
  // is mostly clock overhead for a ~2ns probe, which chargeHitSample
  // corrects for before scaling back up by the sample period.
  ThreadCache& c = *static_cast<ThreadCache*>(impl_);
  const uint64_t t0 = telemetry::nowNs();
  const Instruction* in = &entry_[slot];
  c.stats.hitNs += c.chargeHitSample(telemetry::nowNs() - t0);
  return in;
}

Result<const Instruction*> DecodeSession::miss(uint64_t address) {
  ThreadCache& c = *static_cast<ThreadCache*>(impl_);
  const size_t slot = address & (kWays - 1);

  // Front-array conflict served from the backing map: still a hit.
  if (auto it = c.backing.find(address); it != c.backing.end()) {
    c.tag[slot] = address;
    c.entry[slot] = it->second;
    ++c.stats.hits;
    return &c.entry[slot];
  }

  const uint64_t t0 = telemetry::nowNs();
  auto decoded = decodeAt(address);
  const uint64_t missDelta = telemetry::nowNs() - t0;
  c.stats.missNs +=
      missDelta > c.clockOverheadNs ? missDelta - c.clockOverheadNs : 1;
  ++c.stats.misses;
  if (!decoded) return decoded.error();

  if (c.backing.size() >= kMaxBackingEntries) c.backing.clear();
  c.backing.emplace(address, decoded.value());
  c.tag[slot] = address;
  c.entry[slot] = decoded.value();
  c.noteCached(address);
  return &c.entry[slot];
}

static_assert(DecodeSession::kWays == kWays,
              "session probe must mirror the thread cache geometry");

const DecodeCacheStats& decodeCacheThreadStats() noexcept {
  return threadCache().stats;
}

}  // namespace brew::isa
