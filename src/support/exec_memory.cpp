#include "support/exec_memory.hpp"

#include <dlfcn.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif

namespace brew {

namespace {
size_t pageSize() noexcept {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t roundUpToPage(size_t size) {
  const size_t page = pageSize();
  return (size + page - 1) / page * page;
}

// Dual mapping (see the class comment in exec_memory.hpp) is the default;
// BREW_STRICT_WX=1 forces the single-mapping mprotect scheme. Checked once.
bool dualMappingRequested() noexcept {
  static const bool strict = [] {
    const char* v = std::getenv("BREW_STRICT_WX");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return !strict;
}

std::atomic<ExecFreeHook> g_freeHook{nullptr};
std::atomic<uint64_t> g_codeMutationEpoch{0};

// Bounded ring of mutation records so pollers (the decode cache) can
// invalidate by range instead of flushing wholesale. Indexed by epoch so a
// poller can tell whether its backlog is still fully recorded.
struct MutationRecord {
  uint64_t epoch = 0;
  uint64_t base = 0;
  uint64_t size = 0;
};
constexpr uint64_t kMutationHistory = 64;
std::mutex g_mutationMutex;
MutationRecord g_mutations[kMutationHistory];

void recordMutation(const void* base, size_t size) noexcept {
  std::lock_guard<std::mutex> lock(g_mutationMutex);
  const uint64_t e = g_codeMutationEpoch.load(std::memory_order_relaxed) + 1;
  g_mutations[e % kMutationHistory] =
      MutationRecord{e, reinterpret_cast<uint64_t>(base), size};
  g_codeMutationEpoch.store(e, std::memory_order_release);
  flight::record(flight::Event::CodeMutation,
                 reinterpret_cast<uint64_t>(base), size);
}

void notifyFree(const void* base, size_t size) noexcept {
  recordMutation(base, size);
  // The profiler/crash-attribution index drops the range here, symmetric
  // with registerGeneratedCode at install (separate from the single-slot
  // ExecFreeHook, which the specialization cache owns).
  prof::unregisterCodeRegion(base, size);
  telemetry::counter(telemetry::CounterId::ExecFrees).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .sub(static_cast<int64_t>(size));
  const ExecFreeHook hook = g_freeHook.load(std::memory_order_acquire);
  if (hook != nullptr && base != nullptr) hook(base, size);
}

// Region pool: mmap/munmap dominate the install cost of a small rewrite
// (TLB shootdowns plus first-touch faults), so released mappings are
// parked read+write and handed back to the next same-size allocation
// whose anchor's window holds them (any, for an unanchored request).
// Pooled regions are "freed" in every observable sense — notifyFree has
// fired (specialization-cache invalidation, telemetry, decode-cache epoch)
// before a region is parked, exactly as if it had been unmapped, and
// reallocation re-zeroes the bytes to preserve fresh-mmap semantics.
// A parked region keeps both views (wbase == nullptr for single-mapping
// regions, which are parked read+write). Reallocation inherits whichever
// kind it takes.
struct PooledRegion {
  void* base = nullptr;
  void* wbase = nullptr;
  size_t size = 0;
};
constexpr size_t kMaxPooledRegions = 16;
constexpr size_t kMaxPooledBytes = 1 << 20;
std::mutex g_poolMutex;
PooledRegion g_pool[kMaxPooledRegions];
size_t g_poolCount = 0;
size_t g_poolBytes = 0;

// Placement (see the class comment in exec_memory.hpp): a region may
// serve an anchor when all of it lies in the anchor's 4 GiB-aligned window
// and within rel32 reach of it.
constexpr int kWindowShift = 32;
constexpr uintptr_t kReach = uintptr_t{1} << 31;
// Headroom left above the program break when searching above a module, so
// the heap keeps growing by brk rather than being pushed onto mmap.
constexpr uintptr_t kBrkRoom = uintptr_t{1} << 30;
// Probes per search direction; each failed probe doubles the step.
constexpr int kMaxProbes = 16;

bool inWindow(uintptr_t anchor, uintptr_t addr, size_t bytes) noexcept {
  const uintptr_t end = addr + bytes;
  const uintptr_t window = anchor >> kWindowShift;
  if (addr == 0 || end <= addr || (addr >> kWindowShift) != window ||
      ((end - 1) >> kWindowShift) != window)
    return false;
  return std::max(end, anchor) - std::min(addr, anchor) < kReach;
}

bool poolTake(size_t size, uintptr_t anchor, PooledRegion& out) noexcept {
  std::lock_guard<std::mutex> lock(g_poolMutex);
  for (size_t i = 0; i < g_poolCount; ++i) {
    if (g_pool[i].size != size) continue;
    if (anchor != 0 &&
        !inWindow(anchor, reinterpret_cast<uintptr_t>(g_pool[i].base), size))
      continue;
    out = g_pool[i];
    g_poolBytes -= g_pool[i].size;
    g_pool[i] = g_pool[--g_poolCount];
    return true;
  }
  return false;
}

bool poolPark(void* base, void* wbase, size_t size) noexcept {
  std::lock_guard<std::mutex> lock(g_poolMutex);
  if (g_poolCount >= kMaxPooledRegions ||
      g_poolBytes + size > kMaxPooledBytes)
    return false;
  g_pool[g_poolCount++] = PooledRegion{base, wbase, size};
  g_poolBytes += size;
  return true;
}

void cursorRetreat(uintptr_t base, size_t size) noexcept;

void unmapRegion(void* base, void* wbase, size_t size) noexcept {
  ::munmap(base, size);
  if (wbase != nullptr) ::munmap(wbase, size);
  cursorRetreat(reinterpret_cast<uintptr_t>(base), size);
}

// Frees a mapping: notify (hook + telemetry + mutation record) first, then
// park in the pool or unmap. The hook may itself free ExecMemory, so no
// lock is held while it runs. Dual-mapped regions park as-is (no syscall);
// single-mapping regions are returned to read+write first, which a shared
// mapping of a read-only file refuses, so it is unmapped.
void releaseMapping(void* base, void* wbase, size_t size,
                    bool executable) noexcept {
  notifyFree(base, size);
  if (wbase == nullptr && executable &&
      ::mprotect(base, size, PROT_READ | PROT_WRITE) != 0) {
    unmapRegion(base, nullptr, size);
    return;
  }
  if (!poolPark(base, wbase, size)) unmapRegion(base, wbase, size);
}

// Search cursors, one per 4 GiB window: the lowest address placed below
// and the highest end placed above, so consecutive allocations pack next
// to each other in one probe instead of re-walking what is already there.
// Zero means "start from the module". A handful of windows suffices (one
// per module cluster that holds subject functions).
struct WindowCursor {
  uintptr_t window = UINTPTR_MAX;  // no window: the slot is free
  uintptr_t below = 0;
  uintptr_t above = 0;
};
constexpr size_t kCursorSlots = 8;
std::mutex g_cursorMutex;
WindowCursor g_cursors[kCursorSlots];
size_t g_cursorVictim = 0;

// Returns the cursor for `window`, recycling the oldest slot on a miss.
// Caller holds g_cursorMutex.
WindowCursor& cursorFor(uintptr_t window) noexcept {
  for (WindowCursor& c : g_cursors)
    if (c.window == window) return c;
  WindowCursor& c = g_cursors[g_cursorVictim++ % kCursorSlots];
  c = WindowCursor{window, 0, 0};
  return c;
}

// An unmapped region at a window's search edge hands the edge back, so a
// map/unmap cycle (a mapped persist entry per probe) reuses one address
// instead of walking the window onto fresh page tables.
void cursorRetreat(uintptr_t base, size_t size) noexcept {
  std::lock_guard<std::mutex> lock(g_cursorMutex);
  for (WindowCursor& c : g_cursors) {
    if (c.window != base >> kWindowShift) continue;
    if (c.below == base) c.below = base + size;
    if (c.above == base + size) c.above = base;
  }
}

// One MAP_FIXED_NOREPLACE probe. On kernels without the flag the address
// is only a hint, so a mapping that lands elsewhere is undone. Sets
// `stop` on errors other than "occupied" (out of address space, exec
// refused, map count exhausted): further probes would fail the same way.
void* probeAt(uintptr_t addr, size_t bytes, int prot, int flags, int fd,
              off_t offset, bool& stop) noexcept {
  void* p = ::mmap(reinterpret_cast<void*>(addr), bytes, prot,
                   flags | MAP_FIXED_NOREPLACE, fd, offset);
  if (p == MAP_FAILED) {
    stop = errno != EEXIST;
    return nullptr;
  }
  if (reinterpret_cast<uintptr_t>(p) == addr) return p;
  ::munmap(p, bytes);
  return nullptr;
}

// Maps `bytes` inside `anchor`'s window, or returns nullptr. Searches
// downward from the anchor's module (its lowest mapping, via dladdr; the
// anchor's own page for anonymous code) first, then upward from above
// the anchor and the program break's headroom, each with a bounded number
// of doubling steps. Never maps over an existing mapping.
void* mapNear(uintptr_t anchor, size_t bytes, int prot, int flags, int fd,
              off_t offset) noexcept {
  const uintptr_t page = pageSize();
  const uintptr_t window = anchor >> kWindowShift;
  uintptr_t moduleLo = anchor & ~(page - 1);
  Dl_info info{};
  if (::dladdr(reinterpret_cast<void*>(anchor), &info) != 0 &&
      info.dli_fbase != nullptr)
    moduleLo = reinterpret_cast<uintptr_t>(info.dli_fbase);
  uintptr_t aboveLo = (anchor + page) & ~(page - 1);
  const auto brk = reinterpret_cast<uintptr_t>(::sbrk(0));
  if (brk != static_cast<uintptr_t>(-1) && brk >= anchor &&
      (brk >> kWindowShift) == window)
    aboveLo = std::max(aboveLo, (brk + kBrkRoom) & ~(page - 1));

  uintptr_t below, above;
  {
    std::lock_guard<std::mutex> lock(g_cursorMutex);
    const WindowCursor& c = cursorFor(window);
    below = c.below != 0 ? std::min(c.below, moduleLo) : moduleLo;
    above = std::max(c.above, aboveLo);
  }

  for (const bool down : {true, false}) {
    uintptr_t addr = down ? below - bytes : above;
    uintptr_t step = bytes;
    bool stop = false;
    for (int i = 0; i < kMaxProbes && !stop && inWindow(anchor, addr, bytes);
         ++i) {
      if (void* p = probeAt(addr, bytes, prot, flags, fd, offset, stop)) {
        std::lock_guard<std::mutex> lock(g_cursorMutex);
        WindowCursor& c = cursorFor(window);
        if (down)
          c.below = c.below != 0 ? std::min(c.below, addr) : addr;
        else
          c.above = std::max(c.above, addr + bytes);
        return p;
      }
      addr = down ? addr - step : addr + step;
      step *= 2;
    }
    // Exhausted: the next search restarts from the module, where freed
    // regions may have left room.
    std::lock_guard<std::mutex> lock(g_cursorMutex);
    WindowCursor& c = cursorFor(window);
    (down ? c.below : c.above) = 0;
  }
  return nullptr;
}

// The one placement rule for executable views: in `anchor`'s window when
// it has one and room there, otherwise wherever mmap puts it (counted in
// exec.far_maps when an anchor was given). Maps `fd` from `offset` (a
// page multiple). Returns MAP_FAILED on failure.
void* mapPlaced(uintptr_t anchor, size_t bytes, int prot, int flags, int fd,
                off_t offset = 0) noexcept {
  if (anchor != 0)
    if (void* p = mapNear(anchor, bytes, prot, flags, fd, offset)) return p;
  void* p = ::mmap(nullptr, bytes, prot, flags, fd, offset);
  if (anchor != 0 && p != MAP_FAILED)
    telemetry::counter(telemetry::CounterId::ExecFarMaps).add();
  return p;
}

// Maps `bytes` of a fresh memfd twice: read+exec (placed near `anchor`)
// and read+write (anywhere). Returns false (and cleans up) when any step
// fails, e.g. no memfd_create or a filesystem-level noexec policy on the
// memfd mount.
bool mapDual(size_t bytes, uintptr_t anchor, PooledRegion& out) noexcept {
#ifdef MFD_CLOEXEC
  const int fd = ::memfd_create("brew-code", MFD_CLOEXEC);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return false;
  }
  void* x = mapPlaced(anchor, bytes, PROT_READ | PROT_EXEC, MAP_SHARED, fd);
  void* w = x != MAP_FAILED ? ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                     MAP_SHARED, fd, 0)
                            : MAP_FAILED;
  ::close(fd);  // both mappings keep the inode alive
  if (w == MAP_FAILED) {
    if (x != MAP_FAILED) ::munmap(x, bytes);
    return false;
  }
  out = PooledRegion{x, w, bytes};
  return true;
#else
  (void)bytes;
  (void)anchor;
  (void)out;
  return false;
#endif
}
}  // namespace

void setExecFreeHook(ExecFreeHook hook) noexcept {
  g_freeHook.store(hook, std::memory_order_release);
}

uint64_t codeMutationEpoch() noexcept {
  return g_codeMutationEpoch.load(std::memory_order_acquire);
}

bool codeMutationsSince(uint64_t sinceEpoch, std::vector<CodeMutation>& out) {
  std::lock_guard<std::mutex> lock(g_mutationMutex);
  const uint64_t cur = g_codeMutationEpoch.load(std::memory_order_relaxed);
  if (cur == sinceEpoch) return true;
  if (cur - sinceEpoch > kMutationHistory) return false;
  for (uint64_t e = sinceEpoch + 1; e <= cur; ++e) {
    const MutationRecord& r = g_mutations[e % kMutationHistory];
    if (r.epoch != e) return false;
    out.push_back(CodeMutation{r.base, r.size});
  }
  return true;
}

ExecMemory::~ExecMemory() {
  if (base_ != nullptr) releaseMapping(base_, wbase_, size_, executable_);
}

ExecMemory::ExecMemory(ExecMemory&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      wbase_(std::exchange(other.wbase_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      executable_(std::exchange(other.executable_, false)) {}

ExecMemory& ExecMemory::operator=(ExecMemory&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) releaseMapping(base_, wbase_, size_, executable_);
    base_ = std::exchange(other.base_, nullptr);
    wbase_ = std::exchange(other.wbase_, nullptr);
    size_ = std::exchange(other.size_, 0);
    executable_ = std::exchange(other.executable_, false);
  }
  return *this;
}

Result<ExecMemory> ExecMemory::allocate(size_t size, const void* near) {
  if (size == 0)
    return Error{ErrorCode::InvalidArgument, 0, "zero-size code region"};
  const size_t bytes = roundUpToPage(size);
  const auto anchor = reinterpret_cast<uintptr_t>(near);
  PooledRegion region;
  if (poolTake(bytes, anchor, region)) {
    // match fresh-mmap zeroed contents
    std::memset(region.wbase != nullptr ? region.wbase : region.base, 0,
                bytes);
  } else if (!dualMappingRequested() || !mapDual(bytes, anchor, region)) {
    void* p = mapPlaced(anchor, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1);
    if (p == MAP_FAILED)
      return Error{ErrorCode::CodeBufferFull, 0,
                   std::string("mmap: ") + std::strerror(errno)};
    region = PooledRegion{p, nullptr, bytes};
  }
  ExecMemory mem;
  mem.base_ = region.base;
  mem.wbase_ = region.wbase;
  mem.size_ = bytes;
  telemetry::counter(telemetry::CounterId::ExecAllocations).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .add(static_cast<int64_t>(bytes));
  return mem;
}

Result<ExecMemory> ExecMemory::adoptShared(int fd, off_t offset, size_t size,
                                           const void* near) {
  if (fd < 0 || size == 0 || offset < 0 ||
      static_cast<size_t>(offset) % pageSize() != 0)
    return Error{ErrorCode::InvalidArgument, 0, "bad shared code range"};
  const size_t bytes = roundUpToPage(size);
  void* x = mapPlaced(reinterpret_cast<uintptr_t>(near), bytes,
                      PROT_READ | PROT_EXEC, MAP_SHARED, fd, offset);
  if (x == MAP_FAILED)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mmap shared code: ") + std::strerror(errno)};
  ExecMemory mem;
  mem.base_ = x;
  mem.wbase_ = nullptr;
  mem.size_ = bytes;
  mem.executable_ = true;
  telemetry::counter(telemetry::CounterId::ExecAllocations).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .add(static_cast<int64_t>(bytes));
  return mem;
}

Status ExecMemory::finalize() {
  if (base_ == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "finalize of empty region"};
  if (wbase_ == nullptr &&
      ::mprotect(base_, size_, PROT_READ | PROT_EXEC) != 0)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mprotect: ") + std::strerror(errno)};
  executable_ = true;
  __builtin___clear_cache(static_cast<char*>(base_),
                          static_cast<char*>(base_) + size_);
  return Status::okStatus();
}

Status ExecMemory::makeWritable() {
  if (base_ == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "makeWritable of empty region"};
  if (wbase_ == nullptr &&
      ::mprotect(base_, size_, PROT_READ | PROT_WRITE) != 0)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mprotect: ") + std::strerror(errno)};
  executable_ = false;
  // The region's bytes may now change in place; cached decodes of any
  // address in it are stale the moment the caller writes.
  recordMutation(base_, size_);
  return Status::okStatus();
}

}  // namespace brew
