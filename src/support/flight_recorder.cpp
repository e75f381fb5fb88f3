#include "support/flight_recorder.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include "support/sigsafe_fmt.hpp"
#include "support/telemetry.hpp"

namespace brew::flight {

namespace {

// Each slot publishes through `seq`: a writer invalidates (seq=0), fills
// the fields, then release-stores the 1-based sequence number. Readers
// check seq before and after copying and drop the record on mismatch —
// standard seqlock, except a torn slot is simply skipped (the recorder is
// diagnostic, losing one overwritten-in-flight event is fine).
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> ns{0};
  std::atomic<uint32_t> tid{0};
  std::atomic<uint32_t> event{0};
  std::atomic<uint64_t> a{0}, b{0}, c{0};
};

Slot g_ring[kCapacity];
std::atomic<uint64_t> g_next{0};

uint32_t cachedTid() noexcept {
  thread_local uint32_t tid =
      static_cast<uint32_t>(::syscall(SYS_gettid));
  return tid;
}

constexpr const char* kEventNames[] = {
    "none",
    "cache.insert",
    "cache.evict",
    "cache.invalidate",
    "async.install",
    "dispatch.install",
    "dispatch.demote",
    "dispatch.epoch_bump",
    "dispatch.variant_fail",
    "code.mutation",
    "profiler.start",
    "profiler.stop",
    "test.mark",
};

}  // namespace

void record(Event ev, uint64_t a, uint64_t b, uint64_t c) noexcept {
  const uint64_t n = g_next.fetch_add(1, std::memory_order_relaxed);
  Slot& s = g_ring[n % kCapacity];
  s.seq.store(0, std::memory_order_release);  // invalidate while writing
  s.ns.store(telemetry::nowNs(), std::memory_order_relaxed);
  s.tid.store(cachedTid(), std::memory_order_relaxed);
  s.event.store(static_cast<uint32_t>(ev), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.c.store(c, std::memory_order_relaxed);
  s.seq.store(n + 1, std::memory_order_release);
}

const char* eventName(Event ev) noexcept {
  const auto i = static_cast<size_t>(ev);
  constexpr size_t kNames = sizeof kEventNames / sizeof kEventNames[0];
  return i < kNames ? kEventNames[i] : "unknown";
}

size_t snapshot(Record* out, size_t cap) noexcept {
  if (out == nullptr || cap == 0) return 0;
  const uint64_t next = g_next.load(std::memory_order_acquire);
  uint64_t span = next < kCapacity ? next : kCapacity;
  if (span > cap) span = cap;
  size_t written = 0;
  for (uint64_t i = next - span; i < next; ++i) {
    Slot& s = g_ring[i % kCapacity];
    const uint64_t seq1 = s.seq.load(std::memory_order_acquire);
    if (seq1 != i + 1) continue;  // overwritten or mid-write
    Record r;
    r.seq = seq1;
    r.ns = s.ns.load(std::memory_order_relaxed);
    r.tid = s.tid.load(std::memory_order_relaxed);
    r.event = static_cast<Event>(s.event.load(std::memory_order_relaxed));
    r.a = s.a.load(std::memory_order_relaxed);
    r.b = s.b.load(std::memory_order_relaxed);
    r.c = s.c.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
    out[written++] = r;
  }
  return written;
}

void dumpTo(int fd) noexcept {
  // Bounded to the last 64 events: the dump runs on the crash handler's
  // alternate stack, so the staging array must stay small.
  constexpr size_t kDump = 64;
  Record records[kDump];
  const size_t n = snapshot(records, kDump);
  sigfmt::FdWriter w(fd);
  w.str("--- flight recorder (last ");
  w.dec(n);
  w.str(" of ");
  w.dec(totalRecorded());
  w.str(" events) ---\n");
  for (size_t i = 0; i < n; ++i) {
    const Record& r = records[i];
    w.str("  [");
    w.dec(r.seq);
    w.str("] t=");
    w.dec(r.ns);
    w.str(" tid=");
    w.dec(r.tid);
    w.str(" ");
    w.str(eventName(r.event));
    w.str(" a=");
    w.hex(r.a);
    w.str(" b=");
    w.hex(r.b);
    if (r.c != 0) {
      w.str(" c=");
      w.hex(r.c);
    }
    w.put('\n');
  }
  w.flush();
}

uint64_t totalRecorded() noexcept {
  return g_next.load(std::memory_order_relaxed);
}

}  // namespace brew::flight
