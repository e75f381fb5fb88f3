// RAII executable memory for generated code.
//
// Follows a W^X discipline: no single mapping is ever writable and
// executable at the same time. By default a region is dual-mapped (two
// views of one memfd: a permanently writable view and a permanently
// executable view), so finalize()/makeWritable() are syscall-free state
// flips — an mprotect round trip costs ~2.5µs on current kernels, which
// dominated the install cost of a small rewrite. The tradeoff is that a
// writable alias of executable bytes exists for the region's lifetime;
// set BREW_STRICT_WX=1 (checked once, at first allocation) to force the
// classic single-mapping scheme where finalize()/makeWritable() mprotect
// the one view and no writable alias ever coexists with the executable
// one. The single-mapping scheme is also the automatic fallback when
// memfd_create is unavailable.
//
// Placement: generated code stands in for a function its callers already
// reach, so allocate() and adoptShared() take that function as an anchor
// and map the executable view inside the anchor's 4 GiB-aligned window
// and within 2 GiB of it. An indirect call that crosses into another
// 4 GiB window costs several cycles on every call: on a 4-vCPU Xeon
// (family 6 model 207) the same bytes ran 15-25% slower there than in
// their caller's window. The
// search goes down from the anchor's module first, then up past the
// program break's headroom, with MAP_FIXED_NOREPLACE and a bounded number
// of probes. When the window has no room, or no anchor is given, the
// region goes wherever mmap puts it; an anchored fallback is counted in
// exec.far_maps. The writable alias of a dual mapping is never placed.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace brew {

// Free-notification hook: invoked with (base, size) immediately before a
// mapping is unmapped. The specialization cache registers one so it can
// drop entries whose *target* function lived in the freed range — mmap
// readily reuses addresses, and a stale cache entry keyed by a recycled
// address would otherwise alias unrelated new code. The hook may itself
// free ExecMemory (the cache drops handles outside its locks), so it must
// be reentrant.
using ExecFreeHook = void (*)(const void* base, size_t size) noexcept;
void setExecFreeHook(ExecFreeHook hook) noexcept;

// Monotonic "code mutation" epoch. Bumped whenever executable bytes may
// have changed under an address this process could have decoded from: a
// mapping is freed (the address range can be recycled), or switched back
// to writable for patching. Consumers that cache decoded instructions by
// address (the isa decode cache) poll this and invalidate when it moves.
// Kept separate from the free hook: the hook is a single slot owned by the
// specialization cache, and makeWritable() must not trigger cache-entry
// invalidation (patched regions stay live), only decode staleness.
uint64_t codeMutationEpoch() noexcept;

// The address range one epoch bump invalidated.
struct CodeMutation {
  uint64_t base = 0;
  uint64_t size = 0;
};

// Appends to `out` the ranges of every mutation recorded after
// `sinceEpoch` and returns true, so pollers can invalidate precisely —
// static subject functions survive generated-code churn. Returns false
// when that history has already been evicted from the (bounded) record
// ring; the caller must then treat all addresses as potentially mutated.
bool codeMutationsSince(uint64_t sinceEpoch, std::vector<CodeMutation>& out);

class ExecMemory {
 public:
  ExecMemory() = default;
  ~ExecMemory();

  ExecMemory(const ExecMemory&) = delete;
  ExecMemory& operator=(const ExecMemory&) = delete;
  ExecMemory(ExecMemory&& other) noexcept;
  ExecMemory& operator=(ExecMemory&& other) noexcept;

  // Maps at least `size` bytes (rounded up to page size), writable via
  // writeView() until finalize(), with the code address placed near
  // `near` when it is non-null (see "Placement" above).
  static Result<ExecMemory> allocate(size_t size, const void* near = nullptr);

  // Maps `size` bytes of `fd` from the page-aligned `offset` (the payload
  // of a persisted entry file opened O_RDONLY — see
  // support/persist_cache.hpp) as a MAP_SHARED read-only-executable view,
  // placed near `near` like allocate(). Every process that maps the same
  // file range shares its page-cache pages. The region is born finalized:
  // there is no writable alias, and makeWritable() fails because the
  // kernel refuses PROT_WRITE on a shared mapping of a read-only fd (so
  // the region is unmapped on release, never pooled). The caller keeps
  // ownership of `fd` (the mapping pins the inode).
  static Result<ExecMemory> adoptShared(int fd, off_t offset, size_t size,
                                        const void* near = nullptr);

  // Makes the region executable. Emitting after this is invalid.
  Status finalize();
  // Makes the region writable again (e.g. to patch and re-finalize).
  Status makeWritable();

  // The code address: where the region executes, is registered with
  // profilers, and is keyed in caches. Never writable under dual mapping —
  // emit through writeView()/writableBytes() instead.
  uint8_t* data() noexcept { return static_cast<uint8_t*>(base_); }
  const uint8_t* data() const noexcept {
    return static_cast<const uint8_t*>(base_);
  }
  // Writable alias of the same bytes (equal to data() under the strict
  // single-mapping scheme). Writing through it after finalize() is invalid
  // even where the mapping would permit it.
  uint8_t* writeView() noexcept {
    return static_cast<uint8_t*>(wbase_ != nullptr ? wbase_ : base_);
  }
  size_t size() const noexcept { return size_; }
  bool executable() const noexcept { return executable_; }
  bool valid() const noexcept { return base_ != nullptr; }

  std::span<uint8_t> writableBytes() {
    return executable_ ? std::span<uint8_t>{} : std::span{writeView(), size_};
  }

  // Entry point helper: reinterpret the start of the region as a function.
  template <typename Fn>
  Fn entry(size_t offset = 0) const {
    return reinterpret_cast<Fn>(
        reinterpret_cast<uintptr_t>(data()) + offset);
  }

 private:
  void* base_ = nullptr;   // execution view
  void* wbase_ = nullptr;  // writable alias; nullptr => single mapping
  size_t size_ = 0;
  bool executable_ = false;
};

}  // namespace brew
