// Multi-version dispatch (the paper's §IV–V argument that runtime
// rewriting can cheaply keep MULTIPLE specialized bodies live as runtime
// parameters shift; variant selection follows the multi-version
// binary-rewriting and BAAR online-acceleration designs in PAPERS.md, with
// one profile source: the call counts the stub and the resolver keep).
//
// VariantDispatcher keeps up to N live specialized variants of one
// function, keyed by the runtime value of one integer parameter plus a
// predicate EPOCH (e.g. the PGAS distribution generation), and dispatches
// through a patchable inline-cache stub of kMaxWays (4) ways:
//
//   way 0:  movabs r11, &ways_[0]     ; address of the way's record cell
//           mov    r11, [r11]         ; current IcRecord*
//           cmp    argReg, [r11]      ; key at offset 0
//           jne    way 1
//           inc    qword [r11+16]     ; approximate hit counter
//           jmp    qword [r11+8]      ; variant entry
//   way 1-3: ... (same shape) ...
//   miss:   preserve argument registers, call brewDispatchMiss(key, self),
//           restore, jmp through the returned target
//
// The stub's code is IMMUTABLE after emission — all patching is data: a
// way is repointed with one atomic store to its record cell. The
// monomorphic fast path is therefore one compare + one indirect jump
// (handful of ns, versus ~1 µs for a cached SpecManager hit), and there is
// never a code write racing an instruction fetch.
//
// Empty ways point at a SENTINEL record whose target is the original
// function: a spurious key match on an empty way still executes correctly
// (the original handles every value), so the stub needs no validity check.
//
// The miss path funnels into resolve(): variant-table hits promote into an
// inline way; unknown keys accumulate a (decayed) miss score and are
// specialized — synchronously or on the SpecManager worker pool — once hot.
// When the table is full, a challenger must beat the coldest variant's
// decayed hit score by kDemoteMargin (2)x before that variant is retired
// (hysteresis, so a shifting key distribution converges instead of
// thrashing). Retired records pass through a bounded quarantine before
// being freed — see docs/DISPATCH.md for the full reclamation protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/spec_manager.hpp"

namespace brew {

// One live variant. The first three fields are ABI with the generated
// stub: key at +0 (cmp), target at +8 (jmp), hits at +16 (inc). The hit
// counter is incremented non-atomically by machine code and read/decayed
// with relaxed atomics by the resolver — it is an approximate profile
// signal, never a correctness input.
struct IcRecord {
  uint64_t key = 0;
  const void* target = nullptr;
  std::atomic<uint64_t> hits{0};
  uint64_t hitsAtRound = 0;  // score after the last decay round (resolver)
  uint64_t epoch = 0;
  CodeHandle handle;  // owns the variant's code (empty for the sentinel)
};

// Point-in-time counters of one dispatcher (or an aggregate over all of
// them via VariantDispatcher::aggregate).
struct DispatchStats {
  uint64_t variantsLive = 0;
  uint64_t variantHits = 0;  // sum of decayed per-variant hit counters
  uint64_t tableHits = 0;    // miss-path calls served from the table
  uint64_t misses = 0;       // miss-path calls with no live variant
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t decayRounds = 0;  // decay windows elapsed
  uint64_t epochBumps = 0;
  uint64_t pendingAsync = 0; // candidate rewrites in flight on the pool
  uint64_t epoch = 0;
};

// Introspection row for one live variant (brew_func_variants).
struct VariantInfo {
  uint64_t key = 0;
  uint64_t hits = 0;  // decayed, approximate
  const void* entry = nullptr;
  uint64_t codeBytes = 0;
  uint64_t epoch = 0;
  bool inlineCached = false;  // currently occupies an inline-cache way
};

class VariantDispatcher {
 public:
  static constexpr size_t kMaxWays = 4;        // inline-cache ways per stub
  static constexpr uint64_t kDemoteMargin = 2;  // hysteresis factor

  // `paramIndex` is the 0-based parameter (must be integer-class) whose
  // runtime value keys the variants; `prototypeArgs` supplies the other
  // argument values used when tracing. The dispatcher declares the
  // parameter known on its copy of `config`. Options default to the
  // manager's configured dispatch options.
  VariantDispatcher(SpecManager& manager, const void* fn, size_t paramIndex,
                    std::vector<ArgValue> prototypeArgs, Config config);
  VariantDispatcher(SpecManager& manager, const void* fn, size_t paramIndex,
                    std::vector<ArgValue> prototypeArgs, Config config,
                    DispatchOptions options);
  ~VariantDispatcher();

  VariantDispatcher(const VariantDispatcher&) = delete;
  VariantDispatcher& operator=(const VariantDispatcher&) = delete;

  // False when the stub could not be built (bad parameter, emission
  // failure); entry() then forwards to the original function.
  bool valid() const { return stubCode_.valid(); }

  void* entry() const;
  template <typename Fn>
  Fn as() const {
    return reinterpret_cast<Fn>(entry());
  }

  const void* subject() const { return fn_; }

  // Seeds the variant table with known-hot keys (a fixed guard set, or a
  // profile collected up to a phase boundary): promotes each key
  // synchronously, in order, up to maxVariants, and fast-forwards the
  // sampling gate so the dispatcher starts in steady state. With
  // promoteThreshold = UINT64_MAX no unseeded key is ever specialized, so
  // the seeded set stays fixed.
  void seedHot(std::span<const uint64_t> hotKeys, uint64_t observedCalls);

  // Predicate-epoch change (e.g. PGAS redistribution): retires every live
  // variant, drops the previous epoch's rewrites still in flight, and
  // respecializes the previously hot keys as one batch on the worker pool
  // (SpecManager::rewriteBatch); fresh variants install as the batch
  // completes. Misses fall back to the original meanwhile.
  void bumpEpoch();
  uint64_t epoch() const;

  size_t variantCount() const;
  DispatchStats stats() const;
  std::vector<VariantInfo> variants() const;

  // Miss-path resolver; called from the generated stub via
  // brewDispatchMiss. Returns the call target for `key`.
  const void* resolve(uint64_t key);

  // --- process-wide dispatcher registry (introspection) ---

  // Sums stats() over every live dispatcher; `functions`, when non-null,
  // receives the dispatcher count.
  static DispatchStats aggregate(size_t* functions);
  // Runs `fn` for the dispatcher of `subject` (if any) under the registry
  // lock, so the dispatcher cannot die mid-call. Returns false when absent.
  static bool withDispatcher(const void* subject,
                             const std::function<void(VariantDispatcher&)>& fn);

 private:
  // Variant rewrites in flight on the worker pool, all for the current
  // epoch: an async miss submits one key, bumpEpoch the previous hot set.
  struct Pending {
    std::vector<uint64_t> keys;  // item i of `batch` specializes keys[i]
    std::vector<bool> claimed;   // item already installed or failed
    std::shared_ptr<RewriteBatch> batch;
  };
  struct Retired {
    std::unique_ptr<IcRecord> record;
    uint64_t retiredAt = 0;  // events_ stamp at demotion
  };
  // A key whose rewrite failed `count` times; retried from `retryRound`.
  struct Failure {
    uint64_t count = 0;
    uint64_t retryRound = 0;  // stats_.decayRounds stamp
  };

  void buildStub();
  std::vector<ArgValue> argsFor(uint64_t key) const;
  std::map<uint64_t, std::unique_ptr<IcRecord>>::iterator coldestLocked();
  void installLocked(uint64_t key, CodeHandle handle, uint64_t seedScore);
  void promoteWayLocked(IcRecord* record);
  void demoteLocked(std::map<uint64_t, std::unique_ptr<IcRecord>>::iterator it);
  void maybeSpecializeLocked(uint64_t key, uint64_t score);
  void failLocked(uint64_t key, const Error& error);
  bool inFlightLocked(uint64_t key) const;
  void submitLocked(std::vector<uint64_t> keys);
  void maybeDecayLocked();
  void pollPendingLocked();
  void drainQuarantineLocked();

  SpecManager& manager_;
  const void* fn_;
  size_t paramIndex_;
  size_t intIndex_ = 0;  // integer-register index of the keyed parameter
  std::vector<ArgValue> prototypeArgs_;
  Config config_;
  PassOptions passes_{};
  DispatchOptions options_;

  // Generated stub plus the record cells it reads. Cells are written with
  // release stores; the stub's plain load pairs with them under x86-TSO.
  ExecMemory stubCode_;
  std::atomic<IcRecord*> ways_[kMaxWays];
  IcRecord sentinel_;

  mutable std::mutex mu_;
  uint64_t events_ = 0;       // resolver calls (miss-path only)
  uint64_t windowMisses_ = 0; // misses since the last decay round
  std::map<uint64_t, std::unique_ptr<IcRecord>> variants_;
  std::map<uint64_t, uint64_t> missScore_;
  std::map<uint64_t, Failure> failed_;  // cleared by bumpEpoch
  std::vector<Pending> pending_;
  std::deque<Retired> quarantine_;
  DispatchStats stats_;
};

// C hook called by the generated miss path (ABI: key in rdi, dispatcher in
// rsi; the returned target is tail-jumped to).
extern "C" const void* brewDispatchMiss(uint64_t key, VariantDispatcher* self);

}  // namespace brew
