// Linux `perf` JIT interface: appends "<start> <size> <name>" lines to
// /tmp/perf-<pid>.map so profilers attribute samples inside generated code
// to readable symbols instead of "[unknown]". The paper (§VIII) raises
// debugging/tooling support for rewritten code as an open issue; this is
// the profiling half of the answer (support/jitdump.hpp is the richer
// annotate-capable half; perfMapRegister feeds both sinks).
//
// Off by default; the map is enabled by setPerfMap(true) or BREW_PERF_MAP=1
// and the jitdump by BREW_JITDUMP (see jitdump.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace brew {

bool perfMapEnabled() noexcept;
void setPerfMap(bool enabled) noexcept;

// True when at least one registration sink (perf map or jitdump) is on.
// Call sites use this to skip name formatting on the common disabled path.
bool codeRegistrationEnabled() noexcept;

// Registers one generated-code region with every enabled sink. Safe to
// call from multiple threads; silently does nothing when disabled or when
// the map file cannot be opened.
void perfMapRegister(const void* code, size_t size, const char* name);

// The one-stop install hook: formats the provenance name once, always
// publishes the region in the in-process code-region index (profiler +
// crash attribution, support/profiler.hpp), and forwards to the perf
// map/jitdump sinks when they are enabled. Every generated blob —
// specializations, persisted code, dispatch stubs — goes through here.
void registerGeneratedCode(const void* code, size_t size, const void* fn,
                           uint64_t fingerprint,
                           const char* suffix = nullptr);

// Formats the stable, provenance-bearing symbol name used for installed
// code: "brew::<symbol-or-address>@<fingerprint-prefix>[.suffix]". The
// subject symbol is resolved via dladdr when possible so profiles read
// "brew::apply@1a2b..." rather than a raw pointer. Returns `buf`.
const char* perfSymbolName(char* buf, size_t bufSize, const void* fn,
                           uint64_t fingerprint,
                           const char* suffix = nullptr);

}  // namespace brew
