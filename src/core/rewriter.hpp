// Public C++ API of BREW: Rewriter::rewrite(fn, args...) returns a
// RewrittenFunction whose entry pointer is a drop-in replacement for `fn`
// (same signature, §III-E), specialized for the configured known values.
//
// v2 surface: RewrittenFunction is move-only and backed by a refcounted
// CodeHandle (core/code_cache.hpp); share the underlying code explicitly
// with shareHandle(). A Rewriter can be attached to a SpecManager so
// identical rewrites are served from the concurrent specialization cache.
//
// The C API in brew.h (matching the paper's Figures 2/3/5) wraps this.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/code_cache.hpp"
#include "core/config.hpp"
#include "core/tracer.hpp"
#include "ir/captured.hpp"
#include "support/error.hpp"
#include "support/exec_memory.hpp"

namespace brew {

class SpecManager;

// Optimization passes over the captured code, run between trace and emit
// (§IV: the prototype keeps them simple and case-specific).
struct PassOptions {
  bool peephole = true;  // XMM copy coalescing (passes/register_rules.cpp)
  // Merge a block into its unique Jmp predecessor (removes the stub blocks
  // that migration compensation and resolved control flow leave behind).
  bool mergeBlocks = true;
  // Cross-iteration redundant-load elimination: pool constants re-read by
  // every unrolled iteration are hoisted into scratch registers, and
  // re-loads of lanes a previous load still holds become register reuse.
  bool crossIterLoads = true;
};

// A native value convertible to an ArgValue for rewrite(fn, args...).
// ArgValue pointers are excluded so an `ArgValue args[]` array decays into
// the span overload instead of being mistaken for one pointer argument.
template <typename T>
concept RewriteArg =
    (std::is_arithmetic_v<std::remove_cvref_t<T>> ||
     std::is_enum_v<std::remove_cvref_t<T>> ||
     std::is_pointer_v<std::remove_cvref_t<T>> ||
     std::is_null_pointer_v<std::remove_cvref_t<T>>) &&
    !std::is_same_v<
        std::remove_cv_t<std::remove_pointer_t<std::remove_cvref_t<T>>>,
        ArgValue>;

// Move-only view of one rewrite result. The generated code itself lives in
// a refcounted CodeBlock; destroying the RewrittenFunction drops one
// reference, so code shared with a cache (or via shareHandle()) stays
// executable for every outstanding holder.
class RewrittenFunction {
 public:
  RewrittenFunction() = default;
  explicit RewrittenFunction(CodeHandle handle) : handle_(std::move(handle)) {}

  RewrittenFunction(RewrittenFunction&&) noexcept = default;
  RewrittenFunction& operator=(RewrittenFunction&&) noexcept = default;
  RewrittenFunction(const RewrittenFunction&) = delete;
  RewrittenFunction& operator=(const RewrittenFunction&) = delete;

  template <typename Fn>
  Fn as() const {
    return reinterpret_cast<Fn>(handle_.entry());
  }
  void* entry() const { return handle_.entry(); }
  size_t codeSize() const { return handle_.codeSize(); }
  explicit operator bool() const { return static_cast<bool>(handle_); }

  const TraceStats& traceStats() const;
  const ir::EmitStats& emitStats() const;

  // The refcounted code. shareHandle() retains; the returned handle keeps
  // the code alive independently of this object and of any cache.
  const CodeHandle& handle() const { return handle_; }
  CodeHandle shareHandle() const { return handle_; }

  // Captured-form dump (blocks + pool) and final disassembly.
  std::string dumpCaptured() const;
  std::string disassembly() const;

 private:
  CodeHandle handle_;
};

// Trace + optimize + emit, uncached, producing a fresh refcounted block.
// `variantTag`, when nonzero, names the perf-map symbol of a cache variant.
Result<CodeHandle> compileSpecialization(const Config& config,
                                         const PassOptions& passes,
                                         const void* fn,
                                         std::span<const ArgValue> args,
                                         uint64_t variantTag = 0);

class Rewriter {
 public:
  explicit Rewriter(Config config) : config_(std::move(config)) {}
  // Attached form: rewrites are keyed, deduplicated and served through the
  // manager's concurrent specialization cache.
  Rewriter(Config config, SpecManager& manager)
      : config_(std::move(config)), manager_(&manager) {}

  Config& config() { return config_; }
  const Config& config() const { return config_; }

  PassOptions& passes() { return passOptions_; }

  // Route subsequent rewrites through `manager`'s cache.
  Rewriter& useCache(SpecManager& manager) {
    manager_ = &manager;
    return *this;
  }

  // Core entry point: trace + optimize + emit (or a cache hit).
  Result<RewrittenFunction> rewrite(const void* fn,
                                    std::span<const ArgValue> args);

  // Convenience: arguments converted from native values.
  template <RewriteArg... Args>
  Result<RewrittenFunction> rewrite(const void* fn, Args... args) {
    const ArgValue converted[] = {toArgValue(args)...};
    return rewrite(fn, std::span<const ArgValue>(converted, sizeof...(args)));
  }
  Result<RewrittenFunction> rewrite(const void* fn) {
    return rewrite(fn, std::span<const ArgValue>{});
  }

 private:
  static ArgValue toArgValue(double v) { return ArgValue::fromDouble(v); }
  static ArgValue toArgValue(float v) {
    return ArgValue::fromDouble(static_cast<double>(v));
  }
  template <typename T>
  static ArgValue toArgValue(T* p) {
    return ArgValue::fromPtr(static_cast<const void*>(p));
  }
  static ArgValue toArgValue(std::nullptr_t) { return ArgValue::fromInt(0); }
  template <typename T>
  static ArgValue toArgValue(T v) {
    return ArgValue::fromInt(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }

  Config config_;
  PassOptions passOptions_;
  SpecManager* manager_ = nullptr;
};

// Pass driver (implemented in passes/).
void runPasses(ir::CapturedFunction& fn, const PassOptions& options);

}  // namespace brew
