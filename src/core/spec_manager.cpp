#include "core/spec_manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "support/log.hpp"
#include "support/perf_map.hpp"
#include "support/persist_cache.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {

// Key hash constants (hashKeyBytes). Fixed, so a key hashes the same in
// every process: argsHash and configFp name persistent-cache entry files.
constexpr uint64_t kHashSeed = 0x2d358dccaa6c78a5ULL;
constexpr uint64_t kHashK0 = 0xa0761d6478bd642fULL;
constexpr uint64_t kHashK1 = 0xe7037ed1a0b428dbULL;

// 64x64->128 multiply, folded back to 64 bits: one multiply mixes a whole
// word into the state.
uint64_t foldMul(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

uint64_t loadWord(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// The PassOptions switches, for the flags word of Config::writeKeySection.
uint64_t passBits(const PassOptions& passes) {
  return static_cast<uint64_t>(passes.peephole) |
         static_cast<uint64_t>(passes.mergeBlocks) << 1 |
         static_cast<uint64_t>(passes.crossIterLoads) << 2;
}

const ParamSpec& paramSpec(const Config& config, size_t index) {
  static const ParamSpec kUnknown{};
  return index < Config::kMaxParams ? config.param(index) : kUnknown;
}

// Bytes the generated code folded through a known pointer: its pointee,
// unless the pointer is null.
size_t pointeeBytes(const ParamSpec& spec, const ArgValue& arg) {
  return spec.kind == ParamKind::KnownPtr && arg.bits != 0 ? spec.pointeeSize
                                                           : 0;
}

size_t wordBytes(size_t n) { return (n + 7) & ~size_t{7}; }

// Canonical key bytes: everything the generated code was specialized
// against, as 8-byte words, variable-length contents zero-padded to a word.
//   configuration section: Config::writeKeySection
//   argument count
//   per argument: class (1 = integer, 2 = float); a known one adds 4 and
//                 its pointee length << 8, then the value, then the
//                 pointee bytes of a non-null KnownPtr
//   region count
//   per known region: start, length, contents
// Every length is explicit, so equal bytes mean equal inputs. Writes the
// key at the front of `out`, which only grows (a reused buffer then keeps
// its size as well as its capacity, and resize never zero-fills), and
// returns its length. Every key byte is written, padding included.
size_t writeSpecKeyBytes(const Config& config, const PassOptions& passes,
                         std::span<const ArgValue> args,
                         std::vector<uint8_t>& out) {
  // Sizing pass first, so the key is one resize and one write pass.
  const std::vector<MemRegion>& regions = config.knownRegions();
  // Both counts, one tag per argument.
  size_t size = config.keySectionBytes() + 8 * (2 + args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const ParamSpec& spec = paramSpec(config, i);
    if (spec.kind != ParamKind::Unknown)
      size += 8 + wordBytes(pointeeBytes(spec, args[i]));
  }
  for (const MemRegion& region : regions)
    size += 16 + wordBytes(static_cast<size_t>(region.end - region.start));

  if (out.size() < size) out.resize(size);
  uint8_t* p = config.writeKeySection(out.data(), passBits(passes));
  auto putWord = [&p](uint64_t v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  auto putMemory = [&p](uint64_t address, size_t n) {
    if (n == 0) return;
    // The buffer may hold an earlier key: zero the last word first, so the
    // padding after the contents is zero.
    const uint64_t zero = 0;
    std::memcpy(p + wordBytes(n) - 8, &zero, 8);
    std::memcpy(p, reinterpret_cast<const void*>(address), n);
    p += wordBytes(n);
  };
  putWord(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const ParamSpec& spec = paramSpec(config, i);
    // An unknown value never reaches the generated code, but its class
    // decides the ABI registers of the arguments after it.
    const uint64_t argClass = args[i].isFloat ? 2 : 1;
    if (spec.kind == ParamKind::Unknown) {
      putWord(argClass);
      continue;
    }
    // The generated code folds loads through a known pointer, so its
    // current pointee bytes are part of the specialization identity
    // (domain-map redistribution must re-specialize, not hit).
    const size_t pointee = pointeeBytes(spec, args[i]);
    putWord((uint64_t{pointee} << 8) | 4 | argClass);
    putWord(args[i].bits);
    putMemory(args[i].bits, pointee);
  }
  putWord(regions.size());
  for (const MemRegion& region : regions) {
    const size_t n = static_cast<size_t>(region.end - region.start);
    putWord(region.start);
    putWord(n);
    putMemory(region.start, n);
  }
  return size;
}

// env helper for Options::fromEnv: positive integer or fallthrough.
bool envSize(const char* name, size_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || parsed == 0) return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

// Deferred construction state for the process-wide manager: options staged
// by configureProcess() until the first process() call freezes them.
struct ProcessConfig {
  std::mutex mu;
  SpecManager::Options options;
  bool haveOptions = false;  // configureProcess was called
  bool frozen = false;       // process() already constructed the instance
};

ProcessConfig& processConfig() {
  static auto* config = new ProcessConfig();
  return *config;
}

SpecManager::Options takeProcessOptions() {
  ProcessConfig& pc = processConfig();
  std::lock_guard<std::mutex> lock(pc.mu);
  pc.frozen = true;
  return pc.haveOptions ? pc.options : SpecManager::Options::fromEnv();
}

}  // namespace

uint64_t hashKeyBytes(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint64_t h = kHashSeed;
  if (n >= 64) {
    // Four independent multiply chains, one 16-byte step each per 64-byte
    // block, so the multiplies overlap; then merged in lane order. Named
    // variables, not an array: the lanes must stay in registers.
    uint64_t a = kHashSeed;
    uint64_t b = kHashSeed ^ kHashK0;
    uint64_t c = kHashSeed ^ kHashK1;
    uint64_t d = kHashSeed ^ kHashK0 ^ kHashK1;
    for (; n >= 64; p += 64, n -= 64) {
      a = foldMul(loadWord(p) ^ kHashK0, loadWord(p + 8) ^ a);
      b = foldMul(loadWord(p + 16) ^ kHashK0, loadWord(p + 24) ^ b);
      c = foldMul(loadWord(p + 32) ^ kHashK0, loadWord(p + 40) ^ c);
      d = foldMul(loadWord(p + 48) ^ kHashK0, loadWord(p + 56) ^ d);
    }
    h = foldMul(a ^ kHashK0, b ^ h);
    h = foldMul(c ^ kHashK0, d ^ h);
  }
  for (; n >= 16; p += 16, n -= 16)
    h = foldMul(loadWord(p) ^ kHashK0, loadWord(p + 8) ^ h);
  uint64_t tail[2] = {0, 0};
  if (n != 0) std::memcpy(tail, p, n);
  h = foldMul(tail[0] ^ kHashK0, tail[1] ^ h);
  return foldMul(h ^ kHashK1, bytes.size() ^ kHashK0);
}

CacheKeyView writeCacheKey(const Config& config, const PassOptions& passes,
                           const void* fn, std::span<const ArgValue> args,
                           std::vector<uint8_t>& buffer) {
  const size_t size = writeSpecKeyBytes(config, passes, args, buffer);
  const std::span<const uint8_t> bytes(buffer.data(), size);
  const size_t configBytes = config.keySectionBytes();
  return CacheKeyView{reinterpret_cast<uint64_t>(fn),
                      hashKeyBytes(bytes.first(configBytes)),
                      hashKeyBytes(bytes.subspan(configBytes)), bytes};
}

CacheKey makeCacheKey(const Config& config, const PassOptions& passes,
                      const void* fn, std::span<const ArgValue> args) {
  CacheKey key;
  const CacheKeyView view = writeCacheKey(config, passes, fn, args, key.bytes);
  key.fn = view.fn;
  key.configFp = view.configFp;
  key.argsHash = view.argsHash;
  return key;
}

uint64_t configKeyHash(const Config& config, const PassOptions& passes) {
  std::vector<uint8_t> bytes(config.keySectionBytes());
  config.writeKeySection(bytes.data(), passBits(passes));
  return hashKeyBytes(bytes);
}

int RewriteBatch::next() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [&] { return !completed_.empty() || claimed_ == items_.size(); });
  if (completed_.empty()) return -1;
  const int index = completed_.front();
  completed_.pop_front();
  ++claimed_;
  return index;
}

void RewriteBatch::wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return doneCount_ == items_.size(); });
}

bool RewriteBatch::done(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() && items_[index].done;
}

bool RewriteBatch::ok(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() && items_[index].done && items_[index].ok;
}

CodeHandle RewriteBatch::handle(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() ? items_[index].handle : CodeHandle{};
}

Error RewriteBatch::error(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() ? items_[index].error : Error{};
}

void RewriteBatch::complete(size_t index, Result<CodeHandle> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Item& item = items_[index];
    item.done = true;
    if (result.ok()) {
      item.ok = true;
      item.handle = std::move(*result);
    } else {
      item.error = result.error();
    }
    completed_.push_back(static_cast<int>(index));
    ++doneCount_;
  }
  cv_.notify_all();
}

SpecManager::Options SpecManager::Options::fromEnv() {
  static const Options cached = [] {
    Options o;
    size_t v = 0;
    if (envSize("BREW_WORKERS", &v)) o.workers = static_cast<int>(v);
    if (envSize("BREW_CACHE_BYTES", &v)) o.cacheBytes = v;
    if (envSize("BREW_MAX_VARIANTS", &v)) o.dispatch.maxVariants = v;
    if (envSize("BREW_PROFILE_HZ", &v)) o.profileHz = static_cast<int>(v);
    if (const char* d = std::getenv("BREW_CACHE_DIR"))
      if (d[0] != '\0') o.cacheDir = d;
    return o;
  }();
  return cached;
}

SpecManager::SpecManager(Options options)
    : options_(options),
      cache_(options.cacheBytes, options.cacheShards) {
  if (options_.workers < 1) options_.workers = 1;
  // profileHz is the only field a private instance takes from the
  // environment: an explicit rate wins, 0 defers to BREW_PROFILE_HZ, so
  // the profiler can watch a process that builds its own manager.
  if (options_.profileHz == 0)
    options_.profileHz = Options::fromEnv().profileHz;
  if (options_.profileHz > 0 && !prof::profilerRunning())
    prof::startProfiler(options_.profileHz);
  if (!options_.cacheDir.empty()) {
    persist_ = persist::Store::open(options_.cacheDir);
    if (persist_ == nullptr)
      BREW_LOG_INFO("persistent cache disabled: cannot open %s",
                    options_.cacheDir.c_str());
  }
}

SpecManager::~SpecManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

SpecManager& SpecManager::process() {
  static SpecManager manager{takeProcessOptions()};
  return manager;
}

bool SpecManager::configureProcess(const Options& options) {
  ProcessConfig& pc = processConfig();
  std::lock_guard<std::mutex> lock(pc.mu);
  if (pc.frozen) return false;
  pc.options = options;
  pc.haveOptions = true;
  return true;
}

Result<CodeHandle> SpecManager::rewrite(const Config& config,
                                        const PassOptions& passes,
                                        const void* fn,
                                        std::span<const ArgValue> args) {
  if (fn == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "null function pointer"};
  // The key is written into a per-thread buffer that keeps its capacity,
  // so a cached hit allocates nothing; the cache copies the bytes only
  // when this call builds. The key write and both hashes are timed on 1
  // call in 64 (cache.key_ns), so a slow hit can be split into key and
  // lookup without two clock reads per call.
  thread_local std::vector<uint8_t> keyBuffer;
  thread_local uint32_t keySample = 0;
  const bool sampled = ((++keySample) & 63) == 0;
  const uint64_t keyStart = sampled ? telemetry::fastTicks() : 0;
  const CacheKeyView view =
      writeCacheKey(config, passes, fn, args, keyBuffer);
  if (sampled)
    telemetry::histogram(telemetry::HistogramId::CacheKeyNs)
        .record(telemetry::ticksToNs(telemetry::fastTicks() - keyStart));
  // The lambda's `key` is the cache's owned copy of `view`.
  return cache_.getOrBuild(view, [&](const CacheKeyView& key)
                                     -> Result<CodeHandle> {
    // Probe the persistent store first: a hit materializes finalized code
    // with zero trace/emulate/emit phases (docs/CACHE.md "Persistence").
    if (persist_ != nullptr) {
      persist::ProbeResult probe =
          persist_->probe(fn, key.configFp, key.argsHash);
      if (probe.entry.has_value() &&
          !std::ranges::equal(probe.entry->keyBytes, key.bytes)) {
        // The file name and header hold hashes only; an entry stored under
        // other key bytes is refused like any invalid entry. The store has
        // already counted the load in cache.persist_hits.
        probe.entry.reset();
        probe.rejected = true;
        telemetry::counter(telemetry::CounterId::PersistRejects).add();
        telemetry::counter(telemetry::CounterId::PersistMisses).add();
      }
      cache_.recordPersistProbe(probe.entry.has_value(), probe.rejected);
      if (probe.entry.has_value()) {
        auto* block = new CodeBlock();
        block->memory = std::move(probe.entry->memory);
        block->emitStats.codeBytes = probe.entry->codeBytes;
        block->emitStats.poolBytes = probe.entry->poolBytes;
        block->emitStats.instructions = probe.entry->instructions;
        block->persistedBlocks = probe.entry->blockUnits;
        registerGeneratedCode(block->memory.data(),
                              block->emitStats.codeBytes, fn, key.configFp,
                              "persist");
        return CodeHandle::adopt(block);
      }
    }
    auto built = compileSpecialization(config, passes, fn, args,
                                       CacheKeyHash{}(key));
    if (persist_ != nullptr && built.ok()) {
      const CodeBlock* block = built->get();
      std::vector<persist::RawReloc> relocs;
      relocs.reserve(block->emitStats.relocs.size());
      for (const ir::CodeReloc& r : block->emitStats.relocs)
        relocs.push_back(persist::RawReloc{r.offset, r.target});
      persist::WriteRequest req;
      req.fn = fn;
      req.configFp = key.configFp;
      req.argsHash = key.argsHash;
      req.keyBytes = key.bytes;
      req.bytes = block->memory.data();
      req.size = block->memory.size();
      req.codeBytes = static_cast<uint32_t>(block->emitStats.codeBytes);
      req.poolBytes = static_cast<uint32_t>(block->emitStats.poolBytes);
      req.instructions =
          static_cast<uint32_t>(block->emitStats.instructions);
      req.blockUnits = static_cast<uint32_t>(block->blockUnits());
      req.relocs = relocs;
      req.portable = block->emitStats.portable;
      if (persist_->write(req)) cache_.recordPersistWrite();
    }
    return built;
  });
}

void SpecManager::enqueue(std::function<void()> task) {
  bool inline_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      inline_ = true;  // shutting down: run synchronously, never drop work
    } else {
      if (workers_.empty())
        for (int i = 0; i < options_.workers; ++i)
          workers_.emplace_back([this] { workerLoop(); });
      queue_.push_back(std::move(task));
    }
  }
  if (inline_)
    task();
  else
    cv_.notify_one();
}

void SpecManager::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::shared_ptr<RewriteBatch> SpecManager::rewriteBatch(
    Config config, PassOptions passes, std::vector<RewriteItem> items) {
  auto batch = std::shared_ptr<RewriteBatch>(new RewriteBatch());
  batch->config_ = std::move(config);
  batch->passes_ = passes;
  batch->items_.resize(items.size());
  for (size_t i = 0; i < items.size(); ++i)
    batch->items_[i].request = std::move(items[i]);
  const uint64_t enqueuedNs = telemetry::nowNs();
  for (size_t i = 0; i < batch->items_.size(); ++i) {
    enqueue([this, batch, i, enqueuedNs] {
      telemetry::histogram(telemetry::HistogramId::AsyncQueueLatencyNs)
          .record(telemetry::nowNs() - enqueuedNs);
      // Duplicate items hit the cache's per-key single-flight: one traces,
      // the rest wait and share the handle. A null/failing fn fails only
      // its own item.
      const RewriteItem& item = batch->items_[i].request;
      auto result =
          rewrite(batch->config_, batch->passes_, item.fn, item.args);
      // Recorded before completion, so a caller woken by the batch sees
      // the install in the stats.
      if (result.ok())
        cache_.recordAsyncInstall(telemetry::nowNs() - enqueuedNs);
      batch->complete(i, std::move(result));
    });
  }
  return batch;
}

}  // namespace brew
