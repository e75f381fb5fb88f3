// Decoded-instruction cache fronting the x86-64 decoder.
//
// The tracer decodes at guest addresses it revisits constantly: a loop
// unrolled N times over known bounds decodes the same bytes N times, every
// block variant re-decodes the shared prefix, and repeat rewrites of one
// function under different configs decode it from scratch each time. The
// cache is spike-style: a thread-local direct-mapped array (one probe, no
// hashing) fronting a per-thread map that keeps every decode until
// invalidation, so capacity conflicts in the array are refills, not
// re-decodes.
//
// Invalidation is epoch-based. brew::codeMutationEpoch() advances whenever
// executable bytes may have changed under a cached address — an ExecMemory
// mapping is freed (mmap recycles addresses; recursive A3 rewrites consume
// stage-1 generated code that may sit on a recycled range) or flipped back
// to writable for patching. Each call compares the thread's epoch against
// the global one; on mismatch it fetches the mutated ranges recorded since
// its epoch and drops only overlapping entries, so cached decodes of
// static subject code survive generated-code churn. Only when that history
// has been evicted from the bounded mutation ring does the whole cache
// flush.
//
// Per-thread hit/miss stats are always-on. Misses are clocked
// unconditionally; hits are clocked on a 1-in-64 sample and pre-scaled, so
// phase.decode_ns reflects real decode cost even in fully warm runs where
// every lookup hits, without paying two clock reads per instruction.
// Sampled deltas are corrected for the clock's own cost — each thread
// calibrates clock_gettime overhead once (minimum of a back-to-back
// burst) and subtracts it per sample (floor 1ns), then smooths with an
// EWMA before scaling; the raw reading is mostly clock overhead for a
// ~2ns probe and, pre-scaled, used to overstate warm-trace decode time by
// roughly 10x. The tracer publishes per-trace deltas to the telemetry
// registry, keeping the hot path free of atomics.
#pragma once

#include <cstdint>

#include "isa/instruction.hpp"
#include "support/error.hpp"

namespace brew::isa {

// Cumulative per-thread cache statistics. Monotonic: callers snapshot
// before/after a region of work and subtract.
struct DecodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t missNs = 0;  // decoder wall time on misses, clock cost removed
  uint64_t hitNs = 0;   // hit-path estimate: 1-in-64 sampled, clock cost
                        // removed, EWMA-smoothed, scaled back ×64
};

// One trace's view of the calling thread's decode cache. The TLS lookup
// and the mutation-epoch reconciliation are paid once at construction and
// the direct-mapped hit probe inlines into the trace loop, instead of a
// function call + TLS guard + epoch atomic per decoded instruction.
// Sessions are cheap to construct, must stay on the constructing thread,
// and must not be used across anything that can mutate executable bytes
// (finish the session before installing generated code).
class DecodeSession {
 public:
  static constexpr size_t kWays = 2048;  // mirrors the thread cache

  DecodeSession() noexcept;  // snapshots the TLS cache, reconciles epoch

  Result<const Instruction*> at(uint64_t address) {
    const size_t slot = address & (kWays - 1);
    if (tag_[slot] == address) [[likely]] {
      // 1-in-64 hits divert to the clocked path so phase.decode_ns keeps
      // a warm-trace estimate without two clock reads per instruction.
      if (((++stats_->hits) & 63) != 0) [[likely]] return &entry_[slot];
      return sampledHit(slot);
    }
    return miss(address);
  }

 private:
  Result<const Instruction*> miss(uint64_t address);
  const Instruction* sampledHit(size_t slot);

  void* impl_;  // the thread's cache (opaque: layout lives in the .cpp)
  uint64_t* tag_;
  Instruction* entry_;
  DecodeCacheStats* stats_;
};

// The calling thread's cumulative stats.
const DecodeCacheStats& decodeCacheThreadStats() noexcept;

}  // namespace brew::isa
