// Concurrent specialization cache (toward the ROADMAP's "serve many
// rewrite clients" north star, and the multi-version code caches of
// profile-guided rewriters like Meng et al. / BAAR in PAPERS.md).
//
// Three layers:
//
//  - CodeBlock: one unit of generated code (ExecMemory + captured IR +
//    stats) with an intrusive atomic refcount. Immutable after creation.
//  - CodeHandle: the smart pointer over CodeBlock. Copy = retain, so a
//    handle held by an executing caller keeps the code mapped even after
//    the cache evicts the entry.
//  - CodeCache: a thread-scalable map from (function address, canonical
//    configuration and known-argument key bytes) to CodeHandle. Keys are
//    hashed into N independently-locked shards (default 16; see
//    SpecManager::Options) with per-key single-flight deduplication, an
//    approximate-LRU eviction policy under one *global* atomic byte budget
//    debited per shard, and a lock-free seqlock hit table in front of the
//    shards so a repeat lookup (the cached-hit path, a few hundred ns with
//    the key build) neither takes a mutex nor waits on a builder.
//
// Identity is exact: the hashes only pick a shard and a hit slot. Every
// block carries the bytes of the one key it was built for; shard maps
// compare them and so does the lock-free path before serving the block. A
// hash collision costs a shard lookup, never wrong code.
//
// The lock-free hit path publishes raw CodeBlock pointers; readers turn
// them into owning handles with an inc-if-nonzero retain and revalidate
// the slot sequence afterwards. Blocks that were ever published are
// reclaimed through support/epoch (deferred past every in-flight reader)
// instead of being deleted inline — see fastLookup() in code_cache.cpp for
// the full protocol.
//
// Safety against address reuse: a cache key embeds the *address* of the
// subject function. When an ExecMemory region is freed (test kernels,
// recursive-rewrite stages), mmap may hand the same address to unrelated
// code later. The cache registers an ExecMemory free hook and drops every
// entry whose target lies in a freed range.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/tracer.hpp"
#include "ir/captured.hpp"
#include "support/error.hpp"
#include "support/exec_memory.hpp"

namespace brew {

// One immutable unit of generated code. Created with one reference, owned
// collectively by every CodeHandle pointing at it.
struct CodeBlock {
  ExecMemory memory;
  ir::CapturedFunction captured;
  TraceStats traceStats;
  ir::EmitStats emitStats;
  mutable std::atomic<uint64_t> refs{1};
  // Set by a lock-free hit, which cannot move the entry in its shard's LRU
  // list. The eviction scan gives an entry with the flag set a second
  // chance: it clears the flag and touches the entry as a locked hit would
  // have. Otherwise entries hit lock-free would age by insertion alone
  // while keys served by their shard stay young, and eviction would drop
  // keys in active use.
  mutable std::atomic<bool> referenced{false};
  // Sticky: set once the block enters a lock-free hit table. Published
  // blocks are reclaimed through an epoch grace period (a lock-free reader
  // may still be inspecting the refcount when the last handle dies).
  std::atomic<bool> published{false};

  // Blocks restored from the persistent store carry no captured IR (only
  // the finalized bytes survive serialization); this preserves the unit's
  // block count for cache accounting. Zero for freshly-compiled blocks.
  uint32_t persistedBlocks = 0;
  // CacheKey::bytes of the one key this block is cached under. Set by
  // CodeCache::getOrBuild before the block is published; the shard map's
  // key points at it, and fastLookup compares it so a hit slot never
  // serves a colliding key's block.
  std::vector<uint8_t> keyBytes;

  size_t codeBytes() const noexcept { return memory.size(); }
  // Specialized basic blocks this unit carries (docs/BLOCKS.md): the cache
  // accounts for live blocks as well as bytes, so per-block growth (fork
  // bombs, variant churn) is observable at the cache boundary.
  size_t blockUnits() const noexcept {
    const size_t fromIr = static_cast<size_t>(captured.blockCount());
    return fromIr != 0 ? fromIr : persistedBlocks;
  }
};

namespace detail {
// Deletes the block now, or defers through support/epoch when it was ever
// published to a lock-free hit table.
void destroyCodeBlock(CodeBlock* block) noexcept;
}  // namespace detail

// Intrusive refcounted pointer to a CodeBlock. Copyable (retain) and
// movable (steal); destroying the last handle unmaps the code.
class CodeHandle {
 public:
  CodeHandle() = default;
  // Takes over the reference the block was created with.
  static CodeHandle adopt(CodeBlock* block) { return CodeHandle(block); }

  CodeHandle(const CodeHandle& other) : block_(other.block_) { retain(); }
  CodeHandle(CodeHandle&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  CodeHandle& operator=(const CodeHandle& other) {
    if (this != &other) {
      release();
      block_ = other.block_;
      retain();
    }
    return *this;
  }
  CodeHandle& operator=(CodeHandle&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~CodeHandle() { release(); }

  void* entry() const {
    return block_ != nullptr
               ? const_cast<uint8_t*>(block_->memory.data())
               : nullptr;
  }
  size_t codeSize() const {
    return block_ != nullptr ? block_->emitStats.codeBytes : 0;
  }
  const CodeBlock* get() const noexcept { return block_; }
  const CodeBlock* operator->() const noexcept { return block_; }
  explicit operator bool() const noexcept { return block_ != nullptr; }

  // Snapshot of the reference count (tests / diagnostics only).
  uint64_t useCount() const noexcept {
    return block_ != nullptr ? block_->refs.load(std::memory_order_relaxed)
                             : 0;
  }
  void reset() {
    release();
    block_ = nullptr;
  }

 private:
  explicit CodeHandle(CodeBlock* block) : block_(block) {}
  void retain() const noexcept {
    if (block_ != nullptr)
      block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      detail::destroyCodeBlock(block_);
  }

  CodeBlock* block_ = nullptr;
};

// Non-owning view of a cache key: what every lookup path takes. The bytes
// may live in a caller's reused buffer (SpecManager::rewrite writes them
// into a per-thread one); the cache copies them into owned storage only
// when a call becomes the builder of a new entry, and never refers to the
// caller's bytes after getOrBuild/lookup returns.
struct CacheKeyView {
  uint64_t fn = 0;
  uint64_t configFp = 0;
  uint64_t argsHash = 0;
  std::span<const uint8_t> bytes;

  // Exact, like CacheKey's: the hash words and every byte.
  bool operator==(const CacheKeyView& other) const {
    return fn == other.fn && configFp == other.configFp &&
           argsHash == other.argsHash && std::ranges::equal(bytes, other.bytes);
  }
  // The same key over other storage of the same bytes.
  CacheKeyView withBytes(std::span<const uint8_t> storage) const {
    return {fn, configFp, argsHash, storage};
  }
};

// Cache key: subject function address and the canonical bytes of
// everything the generated code was specialized against (code-shaping
// Config and PassOptions fields, known arguments and pointees, known
// regions; see makeCacheKey). `configFp` and `argsHash` hash sections of
// `bytes` to pick the shard and hit slot; equality compares the bytes
// themselves, so keys whose hashes collide never share an entry. The
// owning form of CacheKeyView, to which it converts.
struct CacheKey {
  uint64_t fn = 0;
  uint64_t configFp = 0;
  uint64_t argsHash = 0;
  std::vector<uint8_t> bytes;

  bool operator==(const CacheKey&) const = default;
  operator CacheKeyView() const { return {fn, configFp, argsHash, bytes}; }
};

struct CacheKeyHash {
  static size_t mix(uint64_t fn, uint64_t configFp,
                    uint64_t argsHash) noexcept {
    uint64_t h = fn;
    h ^= configFp + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= argsHash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
  size_t operator()(const CacheKeyView& key) const noexcept {
    return mix(key.fn, key.configFp, key.argsHash);
  }
};

// Non-owning reference to a getOrBuild builder: the callable's address and
// a function that invokes it, so passing a builder allocates nothing (a
// std::function would, for any lambda capturing more than two words). The
// callable must outlive the getOrBuild call, as any argument temporary
// does. It takes the owned view of the key being built, or nothing.
class BuildRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BuildRef>)
  BuildRef(F&& build) noexcept  // implicit: call sites pass a lambda
      : callable_(static_cast<const void*>(std::addressof(build))),
        invoke_([](const void* callable,
                   const CacheKeyView& owned) -> Result<CodeHandle> {
          using Fn = std::remove_reference_t<F>;
          Fn& fn = *static_cast<Fn*>(const_cast<void*>(callable));
          if constexpr (std::is_invocable_v<Fn&, const CacheKeyView&>)
            return fn(owned);
          else
            return fn();
        }) {}

  Result<CodeHandle> operator()(const CacheKeyView& owned) const {
    return invoke_(callable_, owned);
  }

 private:
  const void* callable_;
  Result<CodeHandle> (*invoke_)(const void*, const CacheKeyView&);
};

struct CacheStats {
  uint64_t hits = 0;            // total, including lock-free fast-path hits
  uint64_t misses = 0;          // one per actual trace+emit attempt
  uint64_t evictions = 0;       // entries dropped for the byte budget
  uint64_t insertions = 0;
  uint64_t inFlightWaits = 0;   // hits that blocked on a concurrent build
  uint64_t invalidations = 0;   // entries dropped by target-address reuse
  uint64_t entries = 0;         // current
  uint64_t blocksLive = 0;      // current specialized basic blocks held
  uint64_t codeBytes = 0;       // current mapped bytes held by the cache
  uint64_t capacityBytes = 0;   // configured budget
  uint64_t asyncInstalls = 0;   // SpecManager::rewriteBatch items with code
  uint64_t asyncLatencyNsTotal = 0;
  uint64_t asyncLatencyNsMax = 0;
  uint64_t fastpathHits = 0;    // subset of hits served by the seqlock table
  uint64_t shardContention = 0; // shard lock acquisitions that had to wait
  uint64_t shards = 0;          // configured shard count
  // Persistent-store traffic (zero unless a cache directory is configured;
  // see support/persist_cache.hpp).
  uint64_t persistHits = 0;     // builds replaced by an on-disk entry
  uint64_t persistMisses = 0;   // probes that fell through to a cold build
  uint64_t persistWrites = 0;   // entries published to disk
  uint64_t persistRejects = 0;  // on-disk entries failing validation
};

class CodeCache {
 public:
  static constexpr size_t kDefaultByteBudget = size_t{64} << 20;
  static constexpr size_t kMaxShards = 64;
  static constexpr size_t kHitSlots = 1024;  // direct-mapped seqlock table
  static constexpr size_t kDefaultShards = 16;

  // `shardCount` is rounded up to a power of two, at most kMaxShards. A
  // shard count of 1 is the single-lock control mode: one shard and NO
  // lock-free hit table — every lookup takes the mutex, which reproduces
  // the pre-sharding behavior for A/B scaling measurements and serves
  // tests as a reference.
  explicit CodeCache(size_t byteBudget = kDefaultByteBudget,
                     size_t shardCount = kDefaultShards);
  ~CodeCache();

  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  size_t shardCount() const { return shards_.size(); }

  // Single-flight lookup-or-build. `build` runs outside all cache locks on
  // exactly one thread per key; concurrent same-key callers block until it
  // finishes and share the result. Failures are returned to every waiter
  // and are NOT cached (the next request retries). A hit allocates
  // nothing. The builder copies `key.bytes` once, before `build` runs;
  // `build` receives that owned copy.
  Result<CodeHandle> getOrBuild(const CacheKeyView& key, BuildRef build);

  // Non-building probe; counts a hit or a miss. Null handle on miss.
  CodeHandle lookup(const CacheKeyView& key);

  // Drops every entry whose key.fn lies in [base, base+size). Called by
  // the ExecMemory free hook; safe to call directly.
  void invalidateTarget(const void* base, size_t size);
  // Internal form used by the free hook: collects dropped handles into
  // `out` so the caller can release them outside all locks.
  void collectInvalidated(const void* base, size_t size,
                          std::vector<CodeHandle>& out);

  void setByteBudget(size_t bytes);
  CacheStats stats() const;
  // Drops all entries (outstanding handles stay valid).
  void clear();
  // Zeroes the counters; current entries/bytes are preserved.
  void resetStats();

  // Async-install accounting (reported by SpecManager).
  void recordAsyncInstall(uint64_t latencyNs);

  // Persistent-store accounting (reported by SpecManager, which owns the
  // persist::Store; the cache just aggregates into CacheStats).
  void recordPersistProbe(bool hit, bool rejected);
  void recordPersistWrite();

 private:
  // Shard maps, LRU lists and the in-flight table are keyed by views. A
  // cached entry's bytes are its block's keyBytes (kept alive by the
  // entry's handle); an in-flight build's are the builder's owned copy in
  // its InFlight record; a probe's are the caller's, used only under the
  // shard lock. A cached key is thus stored once.
  struct Entry {
    CodeHandle handle;
    std::list<CacheKeyView>::iterator lruPos;
    uint64_t stamp = 0;  // global recency stamp for cross-shard eviction
  };
  using EntryMap = std::unordered_map<CacheKeyView, Entry, CacheKeyHash>;
  struct InFlight {
    // The builder's owned copy of the key bytes; the in-flight map key
    // points at it, and it moves into the built block's keyBytes.
    std::vector<uint8_t> keyBytes;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    CodeHandle handle;
    Error error;
  };
  // One slot of the lock-free hit table. The sequence number is even while
  // the slot is stable and odd while a writer owns it; all payload fields
  // are relaxed atomics so seqlock readers never perform a racing plain
  // load. The block pointer is non-owning — the shard entry's handle keeps
  // it alive while published. The key words are only a filter: the block's
  // keyBytes decide a hit.
  struct HitSlot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> fn{0};
    std::atomic<uint64_t> configFp{0};
    std::atomic<uint64_t> argsHash{0};
    std::atomic<CodeBlock*> block{nullptr};
  };
  struct Shard {
    mutable std::mutex mu;
    EntryMap entries;
    std::unordered_map<CacheKeyView, std::shared_ptr<InFlight>, CacheKeyHash>
        inFlight;
    std::list<CacheKeyView> lru;  // front = most recently used
    // Per-shard slices of the counters; stats() sums them.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    uint64_t inFlightWaits = 0;
    uint64_t invalidations = 0;
  };

  size_t shardIndex(size_t hash) const { return hash & (shards_.size() - 1); }
  size_t slotIndex(size_t hash) const {
    return (hash / shards_.size()) & hitMask_;
  }
  // Hot-path lock: counts acquisitions that had to wait (cache.shard_contention).
  std::unique_lock<std::mutex> lockShard(Shard& shard);

  CodeHandle fastLookup(const CacheKeyView& key, size_t hash);
  void publishLocked(size_t hash, const CacheKeyView& key,
                     const CodeHandle& handle);
  void unpublishLocked(size_t hash, const CodeBlock* block);

  void touchLocked(Shard& shard, Entry& entry);
  // The shard's least recently used entry other than `protect`, or end().
  // Entries a lock-free hit used since the last scan are touched on the
  // way (their second chance).
  EntryMap::iterator oldestLocked(Shard& shard, const CacheKeyView* protect);
  void insertLocked(Shard& shard, size_t hash, const CacheKeyView& key,
                    const CodeHandle& handle, std::vector<CodeHandle>& dropped);
  // Removes `it` from `shard`, unpublishing and debiting the global byte
  // count; the handle lands in `dropped` for release outside all locks.
  void eraseLocked(Shard& shard, size_t hash,
                   EntryMap::iterator it,
                   std::vector<CodeHandle>& dropped);
  // Evicts globally-oldest LRU tails (one shard locked at a time, no shard
  // lock held on entry) until the byte budget is met. `protect`, when
  // non-null, is never evicted — the caller just received its handle.
  void enforceBudget(const CacheKeyView* protect,
                     std::vector<CodeHandle>& dropped);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<HitSlot[]> hitSlots_;  // null in single-shard control mode
  size_t hitMask_ = 0;
  std::atomic<size_t> budget_;
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entryCount_{0};
  std::atomic<size_t> blocksLive_{0};
  std::atomic<uint64_t> lruClock_{0};
  std::atomic<uint64_t> fastpathHits_{0};
  std::atomic<uint64_t> contention_{0};
  std::atomic<uint64_t> asyncInstalls_{0};
  std::atomic<uint64_t> asyncLatencyNsTotal_{0};
  std::atomic<uint64_t> asyncLatencyNsMax_{0};
  std::atomic<uint64_t> persistHits_{0};
  std::atomic<uint64_t> persistMisses_{0};
  std::atomic<uint64_t> persistWrites_{0};
  std::atomic<uint64_t> persistRejects_{0};
};

}  // namespace brew
