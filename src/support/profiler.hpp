// In-process observability for runtime-generated code (paper §VIII):
//
//  - A CODE-REGION INDEX: every generated blob (specialization, dispatch
//    stub, guard, entry trampoline) registers its [base, base+size) range,
//    provenance name and config fingerprint. Lookup is async-signal-safe
//    (seqlock-published slots, no locks, no allocation) so both the SIGPROF
//    sampler and the crash handler can attribute a PC from signal context.
//
//  - A SAMPLING PROFILER: setitimer(ITIMER_PROF)/SIGPROF drives an
//    async-signal-safe handler that pushes the interrupted PC into a
//    per-thread lock-free SPSC ring; a background drain thread resolves
//    PCs against the region index into per-specialization sample counts
//    (CPU time, not call counts). Snapshots export via profileSnapshot()/
//    writeProfileJson() and ride in the BREW_STATS report. They are
//    observability only: dispatch hotness comes from call counts.
//
//  - CRASH ATTRIBUTION: a SIGSEGV/SIGBUS/SIGILL handler that, when the
//    faulting PC lands in a brew-owned region, writes the specialization's
//    provenance name, fingerprint, a disassembly/hex window and the flight
//    recorder's recent events to stderr and BREW_CRASH_FILE before
//    re-raising with the original disposition.
//
// Env switches (read once): BREW_PROFILE_HZ (sampling rate; autostarted by
// SpecManager), BREW_PROFILE_FILE (profile JSON written at exit),
// BREW_CRASH_FILE (crash report path), BREW_CRASH_HANDLER=0 (opt out of
// the fault handlers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace brew::prof {

// ---------------------------------------------------------------------------
// Code-region index
// ---------------------------------------------------------------------------

struct CodeRegion {
  uint64_t base = 0;
  uint64_t size = 0;
  uint64_t fingerprint = 0;
  char name[96] = {};
};

// Publishes [code, code+size) under `name`. Called on every install (via
// perf_map.cpp's registerGeneratedCode); re-registering an existing base
// updates it in place. Takes a mutex; NOT for signal context.
void registerCodeRegion(const void* code, size_t size, const char* name,
                        uint64_t fingerprint) noexcept;

// Drops the region starting at `base` (ExecMemory::notifyFree hook).
void unregisterCodeRegion(const void* base, size_t size) noexcept;

// Copies the region covering `pc` into *out. Lock-free and
// async-signal-safe; returns false when the PC is not brew-owned.
bool lookupCodeRegion(uint64_t pc, CodeRegion* out) noexcept;

// Live registered regions (tests).
size_t codeRegionCount() noexcept;

// ---------------------------------------------------------------------------
// Sampling profiler
// ---------------------------------------------------------------------------

bool profilerRunning() noexcept;

// Installs the SIGPROF handler, starts the drain thread and arms
// ITIMER_PROF at `hz` (clamped to [1, 10000]). Idempotent while running
// (the rate is not re-armed). Returns false if the timer cannot be set.
bool startProfiler(int hz);

// Disarms the timer, drains outstanding samples and joins the drain
// thread. Sample totals survive for snapshotting.
void stopProfiler();

// Forces one synchronous drain pass (exporters and tests; safe whether or
// not the profiler is running).
void drainSamplesNow();

// Pushes `pc` through the same per-thread ring the SIGPROF handler uses
// (deterministic attribution tests).
void injectSampleForTest(uint64_t pc) noexcept;

struct ProfileEntry {
  std::string name;       // provenance name from the region index
  uint64_t samples = 0;
};

struct ProfileSnapshot {
  uint64_t hz = 0;              // current (or last) sampling rate
  uint64_t totalSamples = 0;    // every PC the handler captured
  uint64_t brewSamples = 0;     // attributed to a brew-owned region
  uint64_t droppedSamples = 0;  // ring full or ring pool exhausted
  std::vector<ProfileEntry> entries;  // sorted by samples, descending
};

// Drains pending samples and returns the aggregate attribution.
ProfileSnapshot profileSnapshot();

// Snapshot as JSON ({"hz":..,"total_samples":..,"entries":[...]}) written
// via tmp+rename. Returns false on I/O failure.
bool writeProfileJson(const char* path);

// Human-readable attribution table (rides in BREW_STATS summaries). No-op
// when the profiler never captured a sample.
void writeProfileSummary(std::FILE* out);

// ---------------------------------------------------------------------------
// Crash attribution
// ---------------------------------------------------------------------------

// Installs the SIGSEGV/SIGBUS/SIGILL handlers (idempotent; also invoked by
// the first code-region registration unless BREW_CRASH_HANDLER=0).
void installCrashHandler() noexcept;

// Overrides the report path (default: BREW_CRASH_FILE; stderr always gets
// a copy). Pass nullptr to clear.
void setCrashFile(const char* path) noexcept;

// Pluggable disassembler for the crash report's code window, registered by
// code that links isa/ (support/ cannot depend on it). Returns bytes
// written to out (NUL-terminated, possibly multi-line).
using CrashDisassembler = size_t (*)(const uint8_t* code, size_t size,
                                     uint64_t address, char* out, size_t cap);
void setCrashDisassembler(CrashDisassembler fn) noexcept;

}  // namespace brew::prof
