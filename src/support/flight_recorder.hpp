// Flight recorder: a fixed-size, process-wide ring of the last runtime
// events (installs, evictions, epoch bumps, guard failures, code
// mutations). Hot paths append with a relaxed fetch_add plus relaxed
// stores — no locks, no allocation — so recording is cheap enough to leave
// on unconditionally. The crash handler dumps the tail of the ring so a
// fault inside generated code comes with the recent history that led to it
// (which specialization was just installed, what got evicted, whether an
// epoch bump was in flight).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace brew::flight {

enum class Event : uint32_t {
  None = 0,
  CacheInsert,       // a=key hash, b=code bytes
  CacheEvict,        // a=key hash, b=code bytes
  CacheInvalidate,   // a=entries dropped
  AsyncInstall,      // a=target fn, b=latency ns
  DispatchInstall,   // a=fn, b=key
  DispatchDemote,    // a=fn, b=key
  DispatchEpochBump, // a=fn, b=new epoch
  DispatchVariantFail,  // a=fn, b=key
  CodeMutation,      // a=base, b=size
  ProfilerStart,     // a=hz
  ProfilerStop,      // a=total samples
  TestMark,          // tests: a/b/c caller-defined
};

struct Record {
  uint64_t seq = 0;  // 1-based publication stamp; 0 = never written
  uint64_t ns = 0;   // telemetry::nowNs() at append
  uint32_t tid = 0;
  Event event = Event::None;
  uint64_t a = 0, b = 0, c = 0;
};

inline constexpr size_t kCapacity = 256;

// Appends one event. Lock-free, allocation-free, async-signal-safe.
void record(Event ev, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0) noexcept;

const char* eventName(Event ev) noexcept;

// Copies up to `cap` of the most recent records into out, oldest first.
// Returns the number written. Records torn by a concurrent writer are
// skipped. Async-signal-safe.
size_t snapshot(Record* out, size_t cap) noexcept;

// Formats the most recent events to fd using only write(2); the crash
// handler's dump path.
void dumpTo(int fd) noexcept;

// Total events ever recorded (monotonic, relaxed).
uint64_t totalRecorded() noexcept;

}  // namespace brew::flight
