#include "support/profiler.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "support/flight_recorder.hpp"
#include "support/sigsafe_fmt.hpp"
#include "support/telemetry.hpp"

#if defined(__x86_64__)
#include <ucontext.h>
#endif

namespace brew::prof {

namespace {

// ---------------------------------------------------------------------------
// Code-region index. Fixed slot table published through per-slot seqlocks:
// writers (install/free paths) serialize on a mutex and flip the slot's
// sequence odd while mutating; readers (SIGPROF handler, crash handler)
// scan lock-free and revalidate the sequence after copying. No allocation
// anywhere near a reader.
// ---------------------------------------------------------------------------

constexpr size_t kMaxRegions = 1024;

struct RegionSlot {
  std::atomic<uint64_t> seq{0};  // even = stable, odd = being written
  std::atomic<uint64_t> base{0};
  // Every data field is a relaxed atomic: the seqlock orders them, but the
  // accesses themselves must be atomic — readers race writers by design
  // and a torn read is discarded by the sequence check, not undefined.
  std::atomic<uint64_t> size{0};
  std::atomic<uint64_t> fingerprint{0};
  std::atomic<char> name[sizeof(CodeRegion{}.name)] = {};
};

RegionSlot g_regions[kMaxRegions];
std::mutex g_regionMu;                  // writers only
std::atomic<size_t> g_regionScanLimit{0};  // slots ever touched
std::atomic<size_t> g_regionCount{0};      // currently live
size_t g_regionVictim = 0;              // round-robin overwrite cursor

void writeSlotLocked(RegionSlot& s, uint64_t base, uint64_t size,
                     uint64_t fingerprint, const char* name) {
  const uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_release);  // odd: in flux
  std::atomic_thread_fence(std::memory_order_release);
  s.size.store(size, std::memory_order_relaxed);
  s.fingerprint.store(fingerprint, std::memory_order_relaxed);
  size_t n = 0;
  if (name != nullptr) {
    for (; n + 1 < sizeof s.name / sizeof s.name[0] && name[n] != '\0'; ++n)
      s.name[n].store(name[n], std::memory_order_relaxed);
  }
  s.name[n].store('\0', std::memory_order_relaxed);
  s.base.store(base, std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);  // even: published
}

// ---------------------------------------------------------------------------
// Sample rings. One SPSC ring per sampled thread, claimed once from a
// fixed pool by the first SIGPROF the thread takes (a relaxed fetch_add —
// no locks, no allocation in the handler). The drain thread is the single
// consumer for every ring.
// ---------------------------------------------------------------------------

constexpr size_t kRingCapacity = 4096;  // power of two
constexpr uint32_t kMaxRings = 128;

struct SampleRing {
  std::atomic<uint64_t> head{0};  // writer (signal handler)
  std::atomic<uint64_t> tail{0};  // consumer (drain thread)
  uint64_t pc[kRingCapacity];
};

std::atomic<SampleRing*> g_rings{nullptr};  // allocated once, leaked
std::atomic<uint32_t> g_ringCount{0};   // claimed slots
thread_local SampleRing* t_ring = nullptr;
std::atomic<uint64_t> g_dropped{0};
std::atomic<bool> g_sampling{false};

void pushSample(uint64_t pc) noexcept {
  SampleRing* ring = t_ring;
  if (ring == nullptr) {
    const uint32_t idx = g_ringCount.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxRings) {
      g_ringCount.store(kMaxRings, std::memory_order_relaxed);
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring = &g_rings.load(std::memory_order_acquire)[idx];
    t_ring = ring;
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  if (head - ring->tail.load(std::memory_order_acquire) >= kRingCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->pc[head & (kRingCapacity - 1)] = pc;
  ring->head.store(head + 1, std::memory_order_release);
}

void onProfSignal(int, siginfo_t*, void* ucontext) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int savedErrno = errno;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  pushSample(static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]));
#else
  (void)ucontext;
  g_dropped.fetch_add(1, std::memory_order_relaxed);
#endif
  errno = savedErrno;
}

// ---------------------------------------------------------------------------
// Drain thread and aggregation
// ---------------------------------------------------------------------------

std::mutex g_ctlMu;    // start/stop lifecycle
std::mutex g_drainMu;  // serializes drain passes
std::mutex g_aggMu;    // protects the aggregates below

std::unordered_map<std::string, uint64_t>& samplesByName() {
  static auto* m = new std::unordered_map<std::string, uint64_t>();
  return *m;
}
uint64_t g_totalSamples = 0;  // under g_aggMu
uint64_t g_brewSamples = 0;   // under g_aggMu
std::atomic<int> g_hz{0};

std::thread* g_drainThread = nullptr;  // leaked on stop-less exit
std::condition_variable g_drainCv;
bool g_drainStop = false;  // under g_ctlMu
bool g_running = false;    // under g_ctlMu

void drainPass() {
  std::lock_guard<std::mutex> drainLock(g_drainMu);
  const uint32_t rings =
      std::min(g_ringCount.load(std::memory_order_acquire), kMaxRings);
  SampleRing* const allRings = g_rings.load(std::memory_order_acquire);
  if (rings == 0 || allRings == nullptr) return;
  std::lock_guard<std::mutex> aggLock(g_aggMu);
  auto& byName = samplesByName();
  for (uint32_t i = 0; i < rings; ++i) {
    SampleRing& ring = allRings[i];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t tail = ring.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const uint64_t pc = ring.pc[tail & (kRingCapacity - 1)];
      ++g_totalSamples;
      CodeRegion region;
      if (lookupCodeRegion(pc, &region)) {
        ++g_brewSamples;
        byName[region.name] += 1;
      }
    }
    ring.tail.store(tail, std::memory_order_release);
  }
}

void drainLoop() {
  std::unique_lock<std::mutex> lock(g_ctlMu);
  while (!g_drainStop) {
    g_drainCv.wait_for(lock, std::chrono::milliseconds(20));
    lock.unlock();
    drainPass();
    lock.lock();
  }
}

void ensureRings() {
  if (g_rings.load(std::memory_order_relaxed) == nullptr)
    g_rings.store(new SampleRing[kMaxRings], std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Crash attribution
// ---------------------------------------------------------------------------

char g_crashFile[512] = {};
std::atomic<CrashDisassembler> g_disassembler{nullptr};
std::atomic<bool> g_crashInstalled{false};
std::atomic<bool> g_reportWritten{false};
struct sigaction g_oldActions[3];  // SIGSEGV, SIGBUS, SIGILL

int crashSignalIndex(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return 0;
    case SIGBUS: return 1;
    case SIGILL: return 2;
    default: return -1;
  }
}

const char* crashSignalName(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

void writeCrashReport(int fd, int sig, const siginfo_t* info, uint64_t pc,
                      const CodeRegion& region) {
  sigfmt::FdWriter w(fd);
  w.str("=== brew crash report (");
  w.str(crashSignalName(sig));
  w.str(") ===\npid: ");
  w.dec(static_cast<uint64_t>(::getpid()));
  w.str("  fault_addr: ");
  w.hex(info != nullptr ? reinterpret_cast<uint64_t>(info->si_addr) : 0);
  w.str("  pc: ");
  w.hex(pc);
  w.str("\nspecialization: ");
  w.str(region.name[0] != '\0' ? region.name : "<unnamed>");
  w.str("\nregion: base=");
  w.hex(region.base);
  w.str(" size=");
  w.dec(region.size);
  w.str(" pc_offset=+");
  w.hex(pc - region.base);
  w.str("\nconfig_fingerprint: ");
  w.hex(region.fingerprint);
  w.put('\n');
  w.flush();

  // Recent runtime history first: it is the part no debugger can
  // reconstruct after the fact.
  flight::dumpTo(fd);

  // Hex window around the faulting PC (clamped to the region). Reading
  // the code bytes can itself fault if the crash is a use-after-free of
  // the mapping; the report above is already flushed if so.
  const uint64_t lo = pc >= region.base + 16 ? pc - 16 : region.base;
  uint64_t hi = pc + 32;
  if (hi > region.base + region.size) hi = region.base + region.size;
  if (lo < hi) {
    w.str("--- code window ---\n  ");
    for (uint64_t a = lo; a < hi; ++a) {
      if (a == pc) w.str(">");
      w.hexByte(*reinterpret_cast<const uint8_t*>(a));
      w.put(' ');
    }
    w.put('\n');
    w.flush();
    // Best-effort disassembly via the registered isa/ callback. Not
    // async-signal-safe (it allocates); everything above is already on
    // disk, so a fault here only costs the prettiest part.
    if (CrashDisassembler disasm =
            g_disassembler.load(std::memory_order_acquire);
        disasm != nullptr) {
      static char buf[4096];
      const size_t n =
          disasm(reinterpret_cast<const uint8_t*>(lo),
                 static_cast<size_t>(hi - lo), lo, buf, sizeof buf);
      if (n > 0) {
        w.str("--- disassembly ---\n");
        w.raw(buf, std::min(n, sizeof buf));
        if (buf[std::min(n, sizeof buf) - 1] != '\n') w.put('\n');
      }
    }
  }
  w.str("=== end brew crash report ===\n");
  w.flush();
}

void restoreCrashAction(int sig) noexcept {
  const int idx = crashSignalIndex(sig);
  if (idx >= 0) ::sigaction(sig, &g_oldActions[idx], nullptr);
}

void onCrashSignal(int sig, siginfo_t* info, void* ucontext) {
  // Hand the signal back to the previous owner first: if anything below
  // faults or the report is already written, the process still dies with
  // the original disposition.
  restoreCrashAction(sig);

  uint64_t pc = 0;
#if defined(__x86_64__)
  if (ucontext != nullptr) {
    const auto* uc = static_cast<const ucontext_t*>(ucontext);
    pc = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  }
#else
  (void)ucontext;
#endif

  CodeRegion region;
  if (pc != 0 && lookupCodeRegion(pc, &region) &&
      !g_reportWritten.exchange(true)) {
    writeCrashReport(STDERR_FILENO, sig, info, pc, region);
    if (g_crashFile[0] != '\0') {
      const int fd = ::open(g_crashFile, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        writeCrashReport(fd, sig, info, pc, region);
        ::close(fd);
      }
    }
  }

  // Re-raise: pending until the handler returns, then delivered with the
  // restored action (and a genuine fault would re-trigger regardless).
  ::raise(sig);
}

// ---------------------------------------------------------------------------
// Environment wiring (observability-style: read once at static init, like
// telemetry's BREW_TRACE_FILE/BREW_STATS)
// ---------------------------------------------------------------------------

const char* g_profilePath = nullptr;
bool g_crashHandlerAllowed = true;

void atExitProfile() {
  drainSamplesNow();
  if (g_profilePath != nullptr) writeProfileJson(g_profilePath);
}

struct EnvInit {
  EnvInit() {
    if (const char* path = std::getenv("BREW_CRASH_FILE");
        path != nullptr && path[0] != '\0') {
      std::strncpy(g_crashFile, path, sizeof g_crashFile - 1);
    }
    if (const char* off = std::getenv("BREW_CRASH_HANDLER");
        off != nullptr && off[0] == '0')
      g_crashHandlerAllowed = false;
    if (const char* path = std::getenv("BREW_PROFILE_FILE");
        path != nullptr && path[0] != '\0') {
      g_profilePath = path;
      std::atexit(&atExitProfile);
    }
  }
};
EnvInit g_envInit;

}  // namespace

// ---------------------------------------------------------------------------
// Code-region index
// ---------------------------------------------------------------------------

void registerCodeRegion(const void* code, size_t size, const char* name,
                        uint64_t fingerprint) noexcept {
  if (code == nullptr || size == 0) return;
  installCrashHandler();
  const uint64_t base = reinterpret_cast<uint64_t>(code);
  std::lock_guard<std::mutex> lock(g_regionMu);
  const size_t limit = g_regionScanLimit.load(std::memory_order_relaxed);
  RegionSlot* empty = nullptr;
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    const uint64_t b = s.base.load(std::memory_order_relaxed);
    if (b == base) {  // reinstall at the same address: update in place
      writeSlotLocked(s, base, size, fingerprint, name);
      return;
    }
    if (b == 0 && empty == nullptr) empty = &s;
  }
  RegionSlot* slot = empty;
  if (slot == nullptr) {
    if (limit < kMaxRegions) {
      slot = &g_regions[limit];
      g_regionScanLimit.store(limit + 1, std::memory_order_release);
    } else {  // index full: overwrite round-robin (diagnostic best effort)
      slot = &g_regions[g_regionVictim];
      g_regionVictim = (g_regionVictim + 1) % kMaxRegions;
      g_regionCount.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  writeSlotLocked(*slot, base, size, fingerprint, name);
  g_regionCount.fetch_add(1, std::memory_order_relaxed);
}

void unregisterCodeRegion(const void* base, size_t size) noexcept {
  (void)size;
  if (base == nullptr) return;
  const uint64_t b = reinterpret_cast<uint64_t>(base);
  std::lock_guard<std::mutex> lock(g_regionMu);
  const size_t limit = g_regionScanLimit.load(std::memory_order_relaxed);
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    if (s.base.load(std::memory_order_relaxed) == b) {
      writeSlotLocked(s, 0, 0, 0, nullptr);
      g_regionCount.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

bool lookupCodeRegion(uint64_t pc, CodeRegion* out) noexcept {
  if (pc == 0 || out == nullptr) return false;
  const size_t limit = g_regionScanLimit.load(std::memory_order_acquire);
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    for (int attempt = 0; attempt < 2; ++attempt) {
      const uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 & 1) continue;  // writer in flux; retry once
      const uint64_t base = s.base.load(std::memory_order_relaxed);
      if (base == 0 || pc < base) break;
      CodeRegion copy;
      copy.base = base;
      copy.size = s.size.load(std::memory_order_relaxed);
      copy.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
      for (size_t b = 0; b < sizeof copy.name; ++b)
        copy.name[b] = s.name[b].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
      if (pc >= copy.base + copy.size) break;
      *out = copy;
      return true;
    }
  }
  return false;
}

size_t codeRegionCount() noexcept {
  return g_regionCount.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Profiler lifecycle
// ---------------------------------------------------------------------------

bool profilerRunning() noexcept {
  std::lock_guard<std::mutex> lock(g_ctlMu);
  return g_running;
}

bool startProfiler(int hz) {
  hz = std::clamp(hz, 1, 10000);
  std::unique_lock<std::mutex> lock(g_ctlMu);
  if (g_running) return true;
  ensureRings();
  installCrashHandler();

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = &onProfSignal;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, nullptr) != 0) return false;

  g_sampling.store(true, std::memory_order_release);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = std::max(1L, 1000000L / hz);
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_release);
    return false;
  }

  g_hz.store(hz, std::memory_order_relaxed);
  g_drainStop = false;
  g_drainThread = new std::thread(&drainLoop);
  g_running = true;
  lock.unlock();
  flight::record(flight::Event::ProfilerStart, static_cast<uint64_t>(hz));
  return true;
}

void stopProfiler() {
  std::unique_lock<std::mutex> lock(g_ctlMu);
  if (!g_running) return;
  struct itimerval off;
  std::memset(&off, 0, sizeof off);
  ::setitimer(ITIMER_PROF, &off, nullptr);
  g_sampling.store(false, std::memory_order_release);
  g_drainStop = true;
  std::thread* t = g_drainThread;
  g_drainThread = nullptr;
  g_running = false;
  g_drainCv.notify_all();
  lock.unlock();
  if (t != nullptr) {
    t->join();
    delete t;
  }
  drainPass();  // samples still parked in the rings
  uint64_t total = 0;
  {
    std::lock_guard<std::mutex> aggLock(g_aggMu);
    total = g_totalSamples;
  }
  flight::record(flight::Event::ProfilerStop, total);
}

void drainSamplesNow() { drainPass(); }

void injectSampleForTest(uint64_t pc) noexcept {
  {
    std::lock_guard<std::mutex> lock(g_ctlMu);
    ensureRings();
  }
  pushSample(pc);
}

ProfileSnapshot profileSnapshot() {
  drainPass();
  ProfileSnapshot snap;
  snap.hz = static_cast<uint64_t>(g_hz.load(std::memory_order_relaxed));
  snap.droppedSamples = g_dropped.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_aggMu);
  snap.totalSamples = g_totalSamples;
  snap.brewSamples = g_brewSamples;
  snap.entries.reserve(samplesByName().size());
  for (const auto& [name, samples] : samplesByName())
    snap.entries.push_back({name, samples});
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return a.samples != b.samples ? a.samples > b.samples
                                            : a.name < b.name;
            });
  return snap;
}

bool writeProfileJson(const char* path) {
  if (path == nullptr) return false;
  const ProfileSnapshot snap = profileSnapshot();
  std::string tmpPath = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmpPath.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"hz\": %llu,\n  \"total_samples\": %llu,\n"
               "  \"brew_samples\": %llu,\n  \"dropped_samples\": %llu,\n"
               "  \"entries\": [",
               static_cast<unsigned long long>(snap.hz),
               static_cast<unsigned long long>(snap.totalSamples),
               static_cast<unsigned long long>(snap.brewSamples),
               static_cast<unsigned long long>(snap.droppedSamples));
  for (size_t i = 0; i < snap.entries.size(); ++i) {
    std::string escaped;
    for (char c : snap.entries[i].name) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"samples\": %llu}",
                 i > 0 ? "," : "", escaped.c_str(),
                 static_cast<unsigned long long>(snap.entries[i].samples));
  }
  std::fputs("\n  ]\n}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmpPath.c_str(), path) != 0) {
    std::remove(tmpPath.c_str());
    return false;
  }
  return true;
}

void writeProfileSummary(std::FILE* out) {
  const ProfileSnapshot snap = profileSnapshot();
  if (snap.totalSamples == 0 && snap.droppedSamples == 0) return;
  std::fprintf(out,
               "=== brew profile (%llu Hz) ===\n"
               "  samples: %llu total, %llu in generated code, %llu "
               "dropped\n",
               static_cast<unsigned long long>(snap.hz),
               static_cast<unsigned long long>(snap.totalSamples),
               static_cast<unsigned long long>(snap.brewSamples),
               static_cast<unsigned long long>(snap.droppedSamples));
  for (const auto& e : snap.entries)
    std::fprintf(out, "  %-48s %12llu\n", e.name.c_str(),
                 static_cast<unsigned long long>(e.samples));
}

// ---------------------------------------------------------------------------
// Crash handler
// ---------------------------------------------------------------------------

void installCrashHandler() noexcept {
  if (!g_crashHandlerAllowed) return;
  if (g_crashInstalled.exchange(true)) return;

  // A dedicated alternate stack: the faulting thread's own stack may be
  // the thing that is broken (stack overflow into a guard page is a
  // SIGSEGV too).
  static constexpr size_t kAltStackSize = 64 * 1024;
  stack_t ss;
  ss.ss_sp = std::malloc(kAltStackSize);  // leaked by design
  ss.ss_size = kAltStackSize;
  ss.ss_flags = 0;
  if (ss.ss_sp != nullptr) ::sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = &onCrashSignal;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  const int sigs[] = {SIGSEGV, SIGBUS, SIGILL};
  for (int sig : sigs)
    ::sigaction(sig, &sa, &g_oldActions[crashSignalIndex(sig)]);
}

void setCrashFile(const char* path) noexcept {
  if (path == nullptr) {
    g_crashFile[0] = '\0';
    return;
  }
  std::strncpy(g_crashFile, path, sizeof g_crashFile - 1);
  g_crashFile[sizeof g_crashFile - 1] = '\0';
}

void setCrashDisassembler(CrashDisassembler fn) noexcept {
  g_disassembler.store(fn, std::memory_order_release);
}

}  // namespace brew::prof
