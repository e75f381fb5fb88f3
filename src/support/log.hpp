// Tiny leveled logger. Rewriting is performance-sensitive library code, so
// logging is off by default; BREW_LOG (0..3), read once at startup, sets
// the level. Output goes to stderr, or to BREW_LOG_FILE=<path>
// (timestamped, append) when set. The level is atomic and each message is
// formatted into one buffer and emitted with a single stdio call, so
// concurrent rewriter threads never interleave partial lines.
#pragma once

#include <cstdarg>

namespace brew {

enum class LogLevel : int { None = 0, Error = 1, Info = 2, Trace = 3 };

LogLevel logLevel() noexcept;

// printf-style; cheap no-op when the level is disabled.
void logf(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// The macros check the level BEFORE evaluating their arguments: call sites
// pass formatted helpers (isa::toString(...).c_str() on the per-instruction
// trace path), and building those strings for a disabled level would put
// string formatting on the rewrite hot path.
#define BREW_LOG_AT(lvl, ...)                                \
  do {                                                       \
    if (__builtin_expect(::brew::logLevel() >= (lvl), 0))    \
      ::brew::logf((lvl), __VA_ARGS__);                      \
  } while (0)
#define BREW_LOG_ERROR(...) BREW_LOG_AT(::brew::LogLevel::Error, __VA_ARGS__)
#define BREW_LOG_INFO(...) BREW_LOG_AT(::brew::LogLevel::Info, __VA_ARGS__)
#define BREW_LOG_TRACE(...) BREW_LOG_AT(::brew::LogLevel::Trace, __VA_ARGS__)

}  // namespace brew
