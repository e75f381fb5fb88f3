// Rewriter configuration (§III-C): expressed at ABI level so it is
// architecture independent from the user's point of view — "which parameter
// is known", "which function inlines", "avoid unrolling in this function".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "isa/registers.hpp"

namespace brew {

// How one parameter of the rewritten function is treated.
enum class ParamKind : uint8_t {
  Unknown,   // default: the rewritten code computes with the runtime value
  Known,     // the value passed to rewrite() is a fixed constant
  KnownPtr,  // Known, and additionally [value, value+size) is constant data
};

struct ParamSpec {
  ParamKind kind = ParamKind::Unknown;
  bool isFloat = false;  // SSE-class argument (ABI register allocation)
  size_t pointeeSize = 0;  // for KnownPtr
};

struct MemRegion {
  uint64_t start = 0;
  uint64_t end = 0;  // exclusive

  bool contains(uint64_t addr, size_t bytes) const {
    return addr >= start && addr + bytes <= end;
  }
};

// Per-function options, looked up by function start address during tracing
// (§III-C: "a rewriter configuration provides the options for functions
// given their start address").
struct FunctionOptions {
  // Trace into calls to this function (inline) instead of keeping the call.
  bool inlineCalls = true;
  // §III-F/§V-C: every value produced by an instruction in this function is
  // treated as unknown (parameters untouched) — the brute-force switch that
  // prevents any loop unrolling.
  bool forceUnknownResults = false;
  // The callee does not write memory visible to the caller; a kept call
  // then does not clobber the traced stack shadow.
  bool pure = false;
};

struct Limits {
  size_t maxTraceSteps = 2'000'000;
  size_t maxCodeBytes = 4 << 20;
  size_t maxBlocks = 65536;
  int maxVariantsPerAddress = 16;  // §III-F variant threshold
  int maxInlineDepth = 64;
  // Unknown-branch nesting depth beyond which the tracer stops forking
  // and emits a side-exit stub back into the original code instead
  // (docs/BLOCKS.md). A large value never side-exits.
  int maxForkDepth = 32;
};

// Injected instrumentation (§III-D): calls inserted into the generated
// code. Handlers follow the ABI, receive the guest address as argument.
struct Injection {
  using Handler = void (*)(uint64_t guestAddress);
  Handler onEntry = nullptr;
  Handler onExit = nullptr;
  Handler onLoad = nullptr;   // called before every captured memory read
  Handler onStore = nullptr;  // called before every captured memory write
};

// What the rewritten function returns; tells the rewriter which ABI return
// registers must hold real values at ret. Unknown = all of them
// (conservative default).
enum class ReturnKind : uint8_t { Unknown, Int, Float, Void };

class Config {
 public:
  static constexpr size_t kMaxParams = 14;  // 6 int + 8 sse registers

  Config() = default;

  // --- parameters (positions are 0-based signature order) ---
  // Each setter leaves exactly the ParamSpec it names.
  Config& setParamKnown(size_t index, bool isFloat = false) {
    return setParam(index, {ParamKind::Known, isFloat, 0});
  }
  Config& setParamKnownPtr(size_t index, size_t pointeeSize) {
    return setParam(index, {ParamKind::KnownPtr, false, pointeeSize});
  }
  Config& setParamUnknown(size_t index, bool isFloat = false) {
    return setParam(index, {ParamKind::Unknown, isFloat, 0});
  }
  Config& setParamFloat(size_t index) {  // unknown, but SSE class
    return setParamUnknown(index, /*isFloat=*/true);
  }
  const ParamSpec& param(size_t index) const { return params_[index]; }
  size_t declaredParams() const { return declaredParams_; }

  // --- known-constant memory (brew_setmem) ---
  Config& addKnownRegion(const void* start, size_t bytes);
  bool isKnownRegion(uint64_t addr, size_t bytes) const;
  const std::vector<MemRegion>& knownRegions() const { return knownRegions_; }

  // --- per-function options ---
  Config& setFunctionOptions(const void* fn, FunctionOptions options);
  FunctionOptions functionOptions(uint64_t fn) const;
  Config& setDefaultFunctionOptions(FunctionOptions options) {
    defaults_ = options;
    return *this;
  }

  // Fold "acc = +0.0; acc += y" accumulator seeds during tracing: the
  // addsd against a known +0.0 accumulator becomes a plain copy when the
  // lane states prove it exact (both accumulator lanes known +0.0 and the
  // source's high lane a real 0). Differs only for y = -0.0 (keeps the
  // sign) and sNaN quieting.
  Config& setFoldZeroAccumulator(bool enabled) {
    foldZeroAccumulator_ = enabled;
    return *this;
  }
  bool foldZeroAccumulator() const { return foldZeroAccumulator_; }

  Config& setReturnKind(ReturnKind kind) {
    returnKind_ = kind;
    return *this;
  }
  ReturnKind returnKind() const { return returnKind_; }

  Limits& limits() { return limits_; }
  const Limits& limits() const { return limits_; }

  Injection& injection() { return injection_; }
  const Injection& injection() const { return injection_; }

  // The canonical key section (the front of CacheKey::bytes, see
  // makeCacheKey): every field that shapes generated code, as 8-byte
  // words, with counts framing the variable-length parts, so equal words
  // mean equal configurations. Known regions belong to the argument
  // section. `passBits` (the PassOptions switches) joins the flags word.
  size_t keySectionBytes() const {
    return 8 * (kFixedKeyWords + declaredParams_ + 2 * perFunction_.size());
  }
  // Writes keySectionBytes() bytes at `out`; returns the end.
  uint8_t* writeKeySection(uint8_t* out, uint64_t passBits) const;

  // True when nothing in this Config embeds an absolute address: no known
  // regions (bounds are addresses), no per-function options (keyed by
  // address) and no injection handlers (function pointers). Such configs
  // contribute no address to the cache key, so a restarted process with a
  // different memory layout recomputes the same persistent-cache key
  // (support/persist_cache.hpp) and warm-starts. Address-bearing configs
  // still persist correctly — they just miss across layout changes and
  // fall back to a cold rewrite.
  bool aslrStableFingerprint() const {
    return knownRegions_.empty() && perFunction_.empty() &&
           injection_.onEntry == nullptr && injection_.onExit == nullptr &&
           injection_.onLoad == nullptr && injection_.onStore == nullptr;
  }

 private:
  // The words of writeKeySection that every Config has: the two counts,
  // the flags word, six limits and four handlers.
  static constexpr size_t kFixedKeyWords = 13;

  Config& setParam(size_t index, ParamSpec spec);

  ParamSpec params_[kMaxParams];
  size_t declaredParams_ = 0;
  std::vector<MemRegion> knownRegions_;
  std::map<uint64_t, FunctionOptions> perFunction_;
  FunctionOptions defaults_;
  ReturnKind returnKind_ = ReturnKind::Unknown;
  bool foldZeroAccumulator_ = true;
  Limits limits_;
  Injection injection_;
};

// A runtime argument value for the trace, in signature order. Mirrors the
// variadic arguments of the C-level brew_rewrite2().
struct ArgValue {
  uint64_t bits = 0;
  bool isFloat = false;

  static ArgValue fromInt(uint64_t v) { return {v, false}; }
  static ArgValue fromPtr(const void* p) {
    return {reinterpret_cast<uint64_t>(p), false};
  }
  static ArgValue fromDouble(double d);
};

}  // namespace brew
