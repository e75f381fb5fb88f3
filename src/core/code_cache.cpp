#include "core/code_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "support/epoch.hpp"
#include "support/flight_recorder.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {

// Per-instance shard counters stay authoritative for this cache (tests use
// private caches); every movement is mirrored into the process-wide
// registry so brew_telemetry_snapshot() agrees with brew_getcachestats().
telemetry::Counter& mirror(telemetry::CounterId id) {
  return telemetry::counter(id);
}

void trackBytes(int64_t delta) {
  telemetry::gauge(telemetry::GaugeId::CacheBytesLive).add(delta);
}

// Registry of live caches, consulted by the ExecMemory free hook. Leaked
// on purpose: the hook can fire during static destruction (benches keep
// RewrittenFunction globals), after any static registry would be gone.
struct CacheRegistry {
  std::mutex mu;
  std::vector<CodeCache*> caches;
};

CacheRegistry& cacheRegistry() {
  static auto* registry = new CacheRegistry();
  return *registry;
}

void onExecMemoryFreed(const void* base, size_t size) noexcept {
  // Collect dropped handles under the registry lock, release them after:
  // destroying a CodeBlock frees its ExecMemory, which re-enters this hook.
  std::vector<CodeHandle> dropped;
  try {
    CacheRegistry& registry = cacheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (CodeCache* cache : registry.caches)
      cache->collectInvalidated(base, size, dropped);
  } catch (...) {
    // Allocation failure while collecting: leak the entries rather than
    // crash inside a destructor path.
  }
}

size_t roundUpPow2(size_t n) {
  size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace

namespace detail {

void destroyCodeBlock(CodeBlock* block) noexcept {
  // A block that ever sat in a lock-free hit table may still be inspected
  // (refcount probed) by a concurrent fastLookup that loaded its pointer
  // just before the slot changed; defer its deletion past every in-flight
  // epoch reader. Never-published blocks have no lock-free observers.
  if (block->published.load(std::memory_order_acquire)) {
    try {
      epoch::retire(block, [](void* p) noexcept {
        delete static_cast<CodeBlock*>(p);
      });
    } catch (...) {
      // Allocation failure queueing the retirement: leak rather than risk
      // a use-after-free or crash on a destructor path.
    }
  } else {
    delete block;
  }
}

}  // namespace detail

CodeCache::CodeCache(size_t byteBudget, size_t shardCount)
    : budget_(byteBudget) {
  const size_t n = roundUpPow2(std::min(shardCount, kMaxShards));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  hitMask_ = kHitSlots - 1;
  // One shard => single-lock compatibility/control mode: no hit table, so
  // every lookup serializes on the shard mutex (the pre-sharding behavior).
  if (n > 1) hitSlots_ = std::make_unique<HitSlot[]>(kHitSlots);
  CacheRegistry& registry = cacheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.caches.push_back(this);
  setExecFreeHook(&onExecMemoryFreed);
}

CodeCache::~CodeCache() {
  {
    CacheRegistry& registry = cacheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    std::erase(registry.caches, this);
  }
  clear();
  // Blocks whose last handle died while published wait out their epoch
  // grace period; give them one reclamation attempt now that this cache's
  // references are gone (epoch::drain() would be unbounded under churn
  // from other caches).
  epoch::reclaim();
}

std::unique_lock<std::mutex> CodeCache::lockShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    mirror(telemetry::CounterId::CacheShardContention).add();
    lock.lock();
  }
  return lock;
}

// ---------------------------------------------------------------------------
// Lock-free hit path
// ---------------------------------------------------------------------------

CodeHandle CodeCache::fastLookup(const CacheKeyView& key, size_t hash) {
  if (hitSlots_ == nullptr) return CodeHandle{};
  HitSlot& slot = hitSlots_[slotIndex(hash)];
  // The guard keeps any block whose pointer we can still load from the
  // slot from being freed until we exit (see support/epoch.hpp).
  epoch::ReadGuard guard;
  const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if ((s1 & 1) != 0) return CodeHandle{};  // writer mid-update
  CodeBlock* block = slot.block.load(std::memory_order_relaxed);
  const uint64_t fn = slot.fn.load(std::memory_order_relaxed);
  const uint64_t configFp = slot.configFp.load(std::memory_order_relaxed);
  const uint64_t argsHash = slot.argsHash.load(std::memory_order_relaxed);
  // Seqlock close: if the sequence moved, the payload loads above may mix
  // two publications — discard.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != s1) return CodeHandle{};
  if (block == nullptr || fn != key.fn || configFp != key.configFp ||
      argsHash != key.argsHash)
    return CodeHandle{};

  // Retain only if alive: the cache entry's own reference keeps refs >= 1
  // while the block is published, so observing 0 means we lost a race with
  // removal and must not resurrect the block.
  uint64_t refs = block->refs.load(std::memory_order_relaxed);
  do {
    if (refs == 0) return CodeHandle{};
  } while (!block->refs.compare_exchange_weak(refs, refs + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed));
  CodeHandle handle = CodeHandle::adopt(block);

  // Revalidate after the retain: an unchanged sequence proves the slot —
  // and therefore the cache entry, which unpublishes before erasing —
  // still held this block when we took our reference. Then the exact
  // check: a key whose hashes collide with the slot's falls through to
  // its shard, where the map compares the full bytes too.
  if (slot.seq.load(std::memory_order_acquire) != s1 ||
      !std::ranges::equal(block->keyBytes, key.bytes))
    return CodeHandle{};  // `handle` drops the reference

  // The recency mark for the eviction scan: a store next to the
  // refcount at most once per scan, not one per hit.
  if (!block->referenced.load(std::memory_order_relaxed))
    block->referenced.store(true, std::memory_order_relaxed);
  fastpathHits_.fetch_add(1, std::memory_order_relaxed);
  mirror(telemetry::CounterId::CacheHits).add();
  mirror(telemetry::CounterId::CacheFastpathHits).add();
  return handle;
}

void CodeCache::publishLocked(size_t hash, const CacheKeyView& key,
                              const CodeHandle& handle) {
  if (hitSlots_ == nullptr || !handle) return;
  HitSlot& slot = hitSlots_[slotIndex(hash)];
  // Slots are shared across shards (direct-mapped on the full key hash),
  // so a writer from another shard may own this slot right now; publishing
  // is best-effort — skip rather than spin on the hot insert path.
  uint64_t s = slot.seq.load(std::memory_order_relaxed);
  if ((s & 1) != 0) return;
  if (!slot.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel))
    return;
  auto* block = const_cast<CodeBlock*>(handle.get());
  // Sticky flag first: once the pointer is loadable from a slot, the
  // block's eventual destruction must go through the epoch grace period.
  block->published.store(true, std::memory_order_relaxed);
  slot.fn.store(key.fn, std::memory_order_relaxed);
  slot.configFp.store(key.configFp, std::memory_order_relaxed);
  slot.argsHash.store(key.argsHash, std::memory_order_relaxed);
  slot.block.store(block, std::memory_order_relaxed);
  slot.seq.store(s + 2, std::memory_order_release);
}

void CodeCache::unpublishLocked(size_t hash, const CodeBlock* block) {
  if (hitSlots_ == nullptr || block == nullptr) return;
  HitSlot& slot = hitSlots_[slotIndex(hash)];
  // Unlike publish this must not give up: the caller is about to drop the
  // cache's reference, after which a stale slot pointer would hand out a
  // dead block. Writers hold the slot for a handful of relaxed stores, so
  // the spin is bounded.
  for (;;) {
    uint64_t s = slot.seq.load(std::memory_order_acquire);
    if ((s & 1) != 0) continue;  // concurrent writer; recheck after
    if (slot.block.load(std::memory_order_relaxed) != block) return;
    if (!slot.seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel))
      continue;
    slot.block.store(nullptr, std::memory_order_relaxed);
    slot.fn.store(0, std::memory_order_relaxed);
    slot.configFp.store(0, std::memory_order_relaxed);
    slot.argsHash.store(0, std::memory_order_relaxed);
    slot.seq.store(s + 2, std::memory_order_release);
    return;
  }
}

// ---------------------------------------------------------------------------
// Shard-locked helpers
// ---------------------------------------------------------------------------

void CodeCache::touchLocked(Shard& shard, Entry& entry) {
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lruPos);
  entry.stamp = lruClock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

CodeCache::EntryMap::iterator CodeCache::oldestLocked(
    Shard& shard, const CacheKeyView* protect) {
  auto keyIt = shard.lru.end();
  while (keyIt != shard.lru.begin()) {
    const auto cur = std::prev(keyIt);
    if (protect != nullptr && *cur == *protect) {
      keyIt = cur;
      continue;
    }
    auto it = shard.entries.find(*cur);
    if (it == shard.entries.end()) break;
    const CodeHandle& handle = it->second.handle;
    if (handle &&
        handle->referenced.exchange(false, std::memory_order_relaxed)) {
      // The splice moves only *cur to the front; keyIt stays valid, and
      // each entry's flag clears once, so the walk ends.
      touchLocked(shard, it->second);
      continue;
    }
    return it;
  }
  return shard.entries.end();
}

void CodeCache::insertLocked(Shard& shard, size_t hash,
                             const CacheKeyView& key,
                             const CodeHandle& handle,
                             std::vector<CodeHandle>& dropped) {
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) eraseLocked(shard, hash, it, dropped);
  shard.lru.push_front(key);
  Entry entry;
  entry.handle = handle;
  entry.lruPos = shard.lru.begin();
  entry.stamp = lruClock_.fetch_add(1, std::memory_order_relaxed) + 1;
  shard.entries.emplace(key, std::move(entry));
  entryCount_.fetch_add(1, std::memory_order_relaxed);
  const size_t newBytes = handle ? handle->codeBytes() : 0;
  blocksLive_.fetch_add(handle ? handle->blockUnits() : 0,
                        std::memory_order_relaxed);
  bytes_.fetch_add(newBytes, std::memory_order_relaxed);
  trackBytes(static_cast<int64_t>(newBytes));
  ++shard.insertions;
  mirror(telemetry::CounterId::CacheInsertions).add();
  flight::record(flight::Event::CacheInsert, hash, newBytes);
  publishLocked(hash, key, handle);
}

void CodeCache::eraseLocked(
    Shard& shard, size_t hash,
    EntryMap::iterator it,
    std::vector<CodeHandle>& dropped) {
  // Unpublish before dropping the cache's reference: fastLookup treats an
  // unchanged slot as proof the entry is still live.
  unpublishLocked(hash, it->second.handle.get());
  const size_t entryBytes =
      it->second.handle ? it->second.handle->codeBytes() : 0;
  blocksLive_.fetch_sub(
      it->second.handle ? it->second.handle->blockUnits() : 0,
      std::memory_order_relaxed);
  bytes_.fetch_sub(entryBytes, std::memory_order_relaxed);
  trackBytes(-static_cast<int64_t>(entryBytes));
  dropped.push_back(std::move(it->second.handle));
  shard.lru.erase(it->second.lruPos);
  shard.entries.erase(it);
  entryCount_.fetch_sub(1, std::memory_order_relaxed);
}

void CodeCache::enforceBudget(const CacheKeyView* protect,
                              std::vector<CodeHandle>& dropped) {
  // Runs with NO shard lock held; takes one shard lock at a time. The
  // budget is global, so the victim search spans shards: pick the entry
  // with the globally-smallest recency stamp each round. `protect` (the
  // key a caller just inserted or received) and the last remaining entry
  // are never evicted, so a single oversized entry stays usable through
  // the handle its caller holds.
  while (bytes_.load(std::memory_order_relaxed) >
             budget_.load(std::memory_order_relaxed) &&
         entryCount_.load(std::memory_order_relaxed) > 1) {
    size_t victimShard = SIZE_MAX;
    uint64_t victimStamp = UINT64_MAX;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      std::lock_guard<std::mutex> lock(shard.mu);
      // Only the oldest candidate per shard matters.
      auto it = oldestLocked(shard, protect);
      if (it != shard.entries.end() && it->second.stamp < victimStamp) {
        victimStamp = it->second.stamp;
        victimShard = i;
      }
    }
    if (victimShard == SIZE_MAX) return;  // nothing evictable
    Shard& shard = *shards_[victimShard];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // Re-find under the lock: the shard may have changed since the scan.
      auto it = oldestLocked(shard, protect);
      if (it == shard.entries.end()) return;  // raced away; avoid spinning
      const size_t victimHash = CacheKeyHash{}(it->first);
      eraseLocked(shard, victimHash, it, dropped);
      ++shard.evictions;
      mirror(telemetry::CounterId::CacheEvictions).add();
      flight::record(flight::Event::CacheEvict, victimHash);
    }
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

Result<CodeHandle> CodeCache::getOrBuild(const CacheKeyView& key,
                                         BuildRef build) {
  const size_t hash = CacheKeyHash{}(key);
  if (CodeHandle fast = fastLookup(key, hash)) return fast;

  Shard& shard = *shards_[shardIndex(hash)];
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock = lockShard(shard);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.hits;
      mirror(telemetry::CounterId::CacheHits).add();
      touchLocked(shard, it->second);
      // Re-publish: the slot may have been claimed by a colliding key.
      publishLocked(hash, it->first, it->second.handle);
      return it->second.handle;
    }
    auto fit = shard.inFlight.find(key);
    if (fit != shard.inFlight.end()) {
      flight = fit->second;
      ++shard.hits;
      ++shard.inFlightWaits;
      mirror(telemetry::CounterId::CacheHits).add();
      mirror(telemetry::CounterId::CacheInFlightWaits).add();
      lock.unlock();
      std::unique_lock<std::mutex> wait(flight->mu);
      flight->cv.wait(wait, [&] { return flight->done; });
      if (flight->ok) return flight->handle;
      return flight->error;
    }
    // This call builds. The one copy of the key bytes: the in-flight
    // record's map key points at it, `build` receives it, and it becomes
    // the block's keyBytes. The caller's bytes are not used past here.
    flight = std::make_shared<InFlight>();
    flight->keyBytes.assign(key.bytes.begin(), key.bytes.end());
    shard.inFlight.emplace(key.withBytes(flight->keyBytes), flight);
    ++shard.misses;
    mirror(telemetry::CounterId::CacheMisses).add();
  }

  const CacheKeyView owned = key.withBytes(flight->keyBytes);
  Result<CodeHandle> built = build(owned);
  // Each block enters the cache under exactly this one key, so it carries
  // the key's bytes: the entry's map key points at them, and the lock-free
  // path compares them. The block is still private to this thread.
  CodeBlock* block =
      built.ok() ? const_cast<CodeBlock*>(built->get()) : nullptr;
  std::vector<CodeHandle> dropped;
  {
    std::unique_lock<std::mutex> lock = lockShard(shard);
    shard.inFlight.erase(owned);
    if (block != nullptr) {
      block->keyBytes = std::move(flight->keyBytes);
      insertLocked(shard, hash, owned.withBytes(block->keyBytes), *built,
                   dropped);
    }
  }
  if (block != nullptr) {
    const CacheKeyView protect = owned.withBytes(block->keyBytes);
    enforceBudget(&protect, dropped);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->ok = built.ok();
    if (built.ok())
      flight->handle = *built;
    else
      flight->error = built.error();
  }
  flight->cv.notify_all();
  return built;
  // `dropped` handles (evictions / replaced entries) release here, outside
  // every cache lock: their death can reenter the ExecMemory free hook.
}

CodeHandle CodeCache::lookup(const CacheKeyView& key) {
  const size_t hash = CacheKeyHash{}(key);
  if (CodeHandle fast = fastLookup(key, hash)) return fast;

  Shard& shard = *shards_[shardIndex(hash)];
  std::unique_lock<std::mutex> lock = lockShard(shard);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    mirror(telemetry::CounterId::CacheMisses).add();
    return CodeHandle{};
  }
  ++shard.hits;
  mirror(telemetry::CounterId::CacheHits).add();
  touchLocked(shard, it->second);
  publishLocked(hash, it->first, it->second.handle);
  return it->second.handle;
}

void CodeCache::collectInvalidated(const void* base, size_t size,
                                   std::vector<CodeHandle>& out) {
  const uint64_t start = reinterpret_cast<uint64_t>(base);
  const uint64_t end = start + size;
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.fn >= start && it->first.fn < end) {
        auto victim = it++;
        const uint64_t victimFn = victim->first.fn;
        eraseLocked(shard, CacheKeyHash{}(victim->first), victim, out);
        ++shard.invalidations;
        mirror(telemetry::CounterId::CacheInvalidations).add();
        flight::record(flight::Event::CacheInvalidate, victimFn);
      } else {
        ++it;
      }
    }
  }
}

void CodeCache::invalidateTarget(const void* base, size_t size) {
  std::vector<CodeHandle> dropped;
  collectInvalidated(base, size, dropped);
  // dropped handles released here, outside the cache locks.
}

void CodeCache::setByteBudget(size_t bytes) {
  std::vector<CodeHandle> dropped;
  budget_.store(bytes, std::memory_order_relaxed);
  enforceBudget(nullptr, dropped);
}

CacheStats CodeCache::stats() const {
  CacheStats out;
  for (const auto& shardPtr : shards_) {
    const Shard& shard = *shardPtr;
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.insertions += shard.insertions;
    out.inFlightWaits += shard.inFlightWaits;
    out.invalidations += shard.invalidations;
  }
  out.fastpathHits = fastpathHits_.load(std::memory_order_relaxed);
  out.hits += out.fastpathHits;
  out.shardContention = contention_.load(std::memory_order_relaxed);
  out.shards = shards_.size();
  out.entries = entryCount_.load(std::memory_order_relaxed);
  out.blocksLive = blocksLive_.load(std::memory_order_relaxed);
  out.codeBytes = bytes_.load(std::memory_order_relaxed);
  out.capacityBytes = budget_.load(std::memory_order_relaxed);
  out.asyncInstalls = asyncInstalls_.load(std::memory_order_relaxed);
  out.asyncLatencyNsTotal =
      asyncLatencyNsTotal_.load(std::memory_order_relaxed);
  out.asyncLatencyNsMax = asyncLatencyNsMax_.load(std::memory_order_relaxed);
  out.persistHits = persistHits_.load(std::memory_order_relaxed);
  out.persistMisses = persistMisses_.load(std::memory_order_relaxed);
  out.persistWrites = persistWrites_.load(std::memory_order_relaxed);
  out.persistRejects = persistRejects_.load(std::memory_order_relaxed);
  return out;
}

void CodeCache::clear() {
  std::vector<CodeHandle> dropped;
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t shardBytes = 0;
    size_t shardBlocks = 0;
    for (auto& [key, entry] : shard.entries) {
      unpublishLocked(CacheKeyHash{}(key), entry.handle.get());
      shardBytes += entry.handle ? entry.handle->codeBytes() : 0;
      shardBlocks += entry.handle ? entry.handle->blockUnits() : 0;
      dropped.push_back(std::move(entry.handle));
    }
    entryCount_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
    blocksLive_.fetch_sub(shardBlocks, std::memory_order_relaxed);
    bytes_.fetch_sub(shardBytes, std::memory_order_relaxed);
    trackBytes(-static_cast<int64_t>(shardBytes));
    shard.entries.clear();
    shard.lru.clear();
  }
  // dropped handles released here, outside the shard locks.
}

void CodeCache::resetStats() {
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.hits = shard.misses = shard.evictions = shard.insertions = 0;
    shard.inFlightWaits = shard.invalidations = 0;
  }
  fastpathHits_.store(0, std::memory_order_relaxed);
  contention_.store(0, std::memory_order_relaxed);
  asyncInstalls_.store(0, std::memory_order_relaxed);
  asyncLatencyNsTotal_.store(0, std::memory_order_relaxed);
  asyncLatencyNsMax_.store(0, std::memory_order_relaxed);
  persistHits_.store(0, std::memory_order_relaxed);
  persistMisses_.store(0, std::memory_order_relaxed);
  persistWrites_.store(0, std::memory_order_relaxed);
  persistRejects_.store(0, std::memory_order_relaxed);
}

void CodeCache::recordPersistProbe(bool hit, bool rejected) {
  // The persist::Store already bumped the global telemetry counters; this
  // folds the outcome into the per-cache CacheStats snapshot.
  if (hit)
    persistHits_.fetch_add(1, std::memory_order_relaxed);
  else
    persistMisses_.fetch_add(1, std::memory_order_relaxed);
  if (rejected) persistRejects_.fetch_add(1, std::memory_order_relaxed);
}

void CodeCache::recordPersistWrite() {
  persistWrites_.fetch_add(1, std::memory_order_relaxed);
}

void CodeCache::recordAsyncInstall(uint64_t latencyNs) {
  mirror(telemetry::CounterId::CacheAsyncInstalls).add();
  flight::record(flight::Event::AsyncInstall, 0, latencyNs);
  telemetry::histogram(telemetry::HistogramId::AsyncInstallLatencyNs)
      .record(latencyNs);
  asyncInstalls_.fetch_add(1, std::memory_order_relaxed);
  asyncLatencyNsTotal_.fetch_add(latencyNs, std::memory_order_relaxed);
  uint64_t seen = asyncLatencyNsMax_.load(std::memory_order_relaxed);
  while (latencyNs > seen &&
         !asyncLatencyNsMax_.compare_exchange_weak(
             seen, latencyNs, std::memory_order_relaxed)) {
  }
}

}  // namespace brew
