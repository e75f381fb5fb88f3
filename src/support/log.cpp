#include "support/log.hpp"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace brew {

namespace {
LogLevel initialLevel() {
  if (const char* env = std::getenv("BREW_LOG")) {
    const int v = std::atoi(env);
    if (v >= 0 && v <= 3) return static_cast<LogLevel>(v);
  }
  return LogLevel::None;
}
std::atomic<LogLevel> g_level{initialLevel()};

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "[brew:error] ";
    case LogLevel::Info: return "[brew:info]  ";
    case LogLevel::Trace: return "[brew:trace] ";
    default: return "[brew] ";
  }
}

struct Sink {
  std::FILE* file = nullptr;  // stderr unless BREW_LOG_FILE redirects
  bool timestamps = false;
};

const Sink& sink() {
  static const Sink s = [] {
    Sink out;
    out.file = stderr;
    if (const char* path = std::getenv("BREW_LOG_FILE");
        path != nullptr && path[0] != '\0') {
      if (std::FILE* f = std::fopen(path, "a")) {
        out.file = f;        // leaked: must outlive every logging thread
        out.timestamps = true;
      }
    }
    return out;
  }();
  return s;
}
}  // namespace

LogLevel logLevel() noexcept {
  return g_level.load(std::memory_order_relaxed);
}

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) >
      static_cast<int>(g_level.load(std::memory_order_relaxed)))
    return;
  // One buffer, one fwrite: concurrent rewriter threads emit whole lines.
  char buf[1024];
  size_t n = 0;
  const Sink& out = sink();
  if (out.timestamps) {
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    n += static_cast<size_t>(std::snprintf(
        buf + n, sizeof buf - n, "%lld.%06ld ",
        static_cast<long long>(ts.tv_sec), ts.tv_nsec / 1000));
  }
  n += static_cast<size_t>(
      std::snprintf(buf + n, sizeof buf - n, "%s", prefix(level)));
  va_list args;
  va_start(args, fmt);
  const int body = std::vsnprintf(buf + n, sizeof buf - n - 1, fmt, args);
  va_end(args);
  if (body > 0)
    n = n + static_cast<size_t>(body) < sizeof buf - 1
            ? n + static_cast<size_t>(body)
            : sizeof buf - 2;
  buf[n++] = '\n';
  std::fwrite(buf, 1, n, out.file);
}

}  // namespace brew
