#include "core/dispatch.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "jit/assembler.hpp"
#include "support/flight_recorder.hpp"
#include "support/log.hpp"
#include "support/perf_map.hpp"
#include "support/telemetry.hpp"

namespace brew {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

static_assert(std::is_standard_layout_v<IcRecord>,
              "the generated stub reads IcRecord fields by offset");
static_assert(offsetof(IcRecord, key) == 0 &&
                  offsetof(IcRecord, target) == 8 &&
                  offsetof(IcRecord, hits) == 16,
              "IcRecord layout is ABI with the emitted inline-cache stub");

namespace {

// Quarantine shape: retired records (and the variant code they own) are
// freed only once at least this many resolver events have passed since
// demotion AND more than this many records are queued. A thread that
// loaded a record pointer in the stub finishes its compare/jump long
// before the grace period elapses under any realistic schedule; the
// machine-code reader cannot participate in an epoch scheme, so this is a
// time/progress bound rather than a proof — docs/DISPATCH.md discusses it.
constexpr size_t kQuarantineKeep = 8;
constexpr uint64_t kQuarantineGraceEvents = 1024;

// Arbitrary sentinel key: a real key colliding with it merely takes the
// original-function path through an empty way (still correct, original
// handles every value).
constexpr uint64_t kSentinelKey = 0x6272657764697370ULL;  // "brewdisp"

// Ceiling for a fresh variant's seeded hit score. promoteThreshold is
// UINT64_MAX for a fixed seed set; seeding at that value would let the
// stub's plain `inc` wrap the score to 0 and make the variant the coldest
// way victim.
constexpr uint64_t kMaxSeedScore = UINT64_MAX / 2;

// Hit scores gained since the last round: stub hits plus table hits. The
// stub's unlocked `inc` can land just after a round's store and undo it, so
// a score below its base counts as no gain.
uint64_t gainedSinceRound(const IcRecord& rec) {
  const uint64_t hits = rec.hits.load(std::memory_order_relaxed);
  return hits > rec.hitsAtRound ? hits - rec.hitsAtRound : 0;
}

// Emits an ABI-transparent call to `hook(uint64_t key, void* context)` into
// `as`: preserves the integer argument registers, rax and xmm0-7 on the
// stack (keeping the call aligned), moves `keyReg` into rdi and `context`
// into rsi, calls the hook, restores everything. The hook's return value
// survives the restore in r11 — the one scratch register the dispatch
// protocol may clobber — so the caller can tail-jump through it.
void emitPreservedHookCall(jit::Assembler& as, Reg keyReg,
                           const void* context, const void* hook) {
  const Reg saved[] = {Reg::rdi, Reg::rsi, Reg::rdx, Reg::rcx,
                       Reg::r8, Reg::r9, Reg::rax};
  // Entry rsp ≡ 8 (mod 16); 7 pushes make it ≡ 0 — aligned for the call.
  for (Reg r : saved)
    as.emit(makeInstr(Mnemonic::Push, 8, Operand::makeReg(r)));
  // SSE argument registers may carry live doubles.
  as.emit(makeInstr(Mnemonic::Sub, 8, Operand::makeReg(Reg::rsp),
                    Operand::makeImm(128)));
  for (int i = 0; i < 8; ++i)
    as.emit(makeInstr(Mnemonic::Movups, 16,
                      Operand::makeMem(MemOperand{.base = Reg::rsp,
                                                  .disp = i * 16}),
                      Operand::makeReg(isa::xmmFromNum(i))));
  if (keyReg != Reg::rdi) as.movRegReg(Reg::rdi, keyReg);
  as.movRegImm(Reg::rsi, static_cast<int64_t>(
                             reinterpret_cast<uintptr_t>(context)));
  as.callAbs(reinterpret_cast<uint64_t>(hook));
  as.movRegReg(Reg::r11, Reg::rax);
  for (int i = 0; i < 8; ++i)
    as.emit(makeInstr(Mnemonic::Movups, 16, Operand::makeReg(isa::xmmFromNum(i)),
                      Operand::makeMem(MemOperand{.base = Reg::rsp,
                                                  .disp = i * 16})));
  as.emit(makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rsp),
                    Operand::makeImm(128)));
  for (auto it = std::rbegin(saved); it != std::rend(saved); ++it)
    as.emit(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(*it)));
}

struct DispatcherRegistry {
  std::mutex mu;
  std::vector<VariantDispatcher*> all;
};

DispatcherRegistry& dispatcherRegistry() {
  static auto* registry = new DispatcherRegistry();
  return *registry;
}

}  // namespace

extern "C" const void* brewDispatchMiss(uint64_t key,
                                        VariantDispatcher* self) {
  return self->resolve(key);
}

VariantDispatcher::VariantDispatcher(SpecManager& manager, const void* fn,
                                     size_t paramIndex,
                                     std::vector<ArgValue> prototypeArgs,
                                     Config config)
    : VariantDispatcher(manager, fn, paramIndex, std::move(prototypeArgs),
                        std::move(config), manager.options().dispatch) {}

VariantDispatcher::VariantDispatcher(SpecManager& manager, const void* fn,
                                     size_t paramIndex,
                                     std::vector<ArgValue> prototypeArgs,
                                     Config config, DispatchOptions options)
    : manager_(manager),
      fn_(fn),
      paramIndex_(paramIndex),
      prototypeArgs_(std::move(prototypeArgs)),
      config_(std::move(config)),
      options_(options) {
  if (options_.maxVariants == 0) options_.maxVariants = 1;
  if (options_.decayInterval == 0) options_.decayInterval = 1;
  stats_.epoch = 0;

  sentinel_.key = kSentinelKey;
  sentinel_.target = fn_;
  for (auto& way : ways_) way.store(&sentinel_, std::memory_order_release);

  const bool paramOk =
      fn_ != nullptr && paramIndex_ < prototypeArgs_.size() &&
      !prototypeArgs_[paramIndex_].isFloat;
  if (paramOk) {
    for (size_t i = 0; i < paramIndex_; ++i)
      if (!prototypeArgs_[i].isFloat) ++intIndex_;
    config_.setParamKnown(paramIndex_);
    if (intIndex_ < 6) buildStub();
  }

  DispatcherRegistry& registry = dispatcherRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.all.push_back(this);
}

VariantDispatcher::~VariantDispatcher() {
  {
    DispatcherRegistry& registry = dispatcherRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    std::erase(registry.all, this);
  }
  // Callers must have stopped using entry(); the records (and the variant
  // code they own) die with the maps.
}

void VariantDispatcher::buildStub() {
  jit::Assembler as;
  const Reg arg = isa::abi::kIntArgs[intIndex_];
  for (const auto& way : ways_) {
    jit::Label next = as.newLabel();
    as.movRegImm(Reg::r11, static_cast<int64_t>(
                               reinterpret_cast<uintptr_t>(&way)));
    as.emit(makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::r11),
                      Operand::makeMem(MemOperand{.base = Reg::r11})));
    as.emit(makeInstr(Mnemonic::Cmp, 8, Operand::makeReg(arg),
                      Operand::makeMem(MemOperand{.base = Reg::r11})));
    as.jcc(Cond::NE, next);
    as.emit(makeInstr(
        Mnemonic::Inc, 8,
        Operand::makeMem(MemOperand{
            .base = Reg::r11,
            .disp = static_cast<int32_t>(offsetof(IcRecord, hits))})));
    as.emit(makeInstr(
        Mnemonic::JmpInd, 8,
        Operand::makeMem(MemOperand{
            .base = Reg::r11,
            .disp = static_cast<int32_t>(offsetof(IcRecord, target))})));
    as.bind(next);
  }
  // Miss: ABI-transparent call into the resolver; the returned target
  // comes back staged in r11.
  emitPreservedHookCall(as, arg, this,
                        reinterpret_cast<const void*>(&brewDispatchMiss));
  as.emit(makeInstr(Mnemonic::JmpInd, 8, Operand::makeReg(Reg::r11)));

  auto mem = as.finalizeExecutable(reinterpret_cast<uint64_t>(fn_));
  if (!mem.ok()) {
    BREW_LOG_INFO("dispatch stub for %p failed: %s", fn_,
                  mem.error().message().c_str());
    return;
  }
  stubCode_ = std::move(*mem);
  telemetry::counter(telemetry::CounterId::DispatchStubsBuilt).add();
  registerGeneratedCode(stubCode_.data(), stubCode_.size(), fn_,
                        reinterpret_cast<uint64_t>(fn_), "icstub");
}

void* VariantDispatcher::entry() const {
  if (stubCode_.valid()) return const_cast<uint8_t*>(stubCode_.data());
  return const_cast<void*>(fn_);
}

std::vector<ArgValue> VariantDispatcher::argsFor(uint64_t key) const {
  std::vector<ArgValue> args = prototypeArgs_;
  args[paramIndex_] = ArgValue::fromInt(key);
  return args;
}

uint64_t VariantDispatcher::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.epoch;
}

size_t VariantDispatcher::variantCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return variants_.size();
}

DispatchStats VariantDispatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DispatchStats out = stats_;
  out.variantsLive = variants_.size();
  out.pendingAsync = 0;
  for (const Pending& p : pending_)
    out.pendingAsync +=
        static_cast<uint64_t>(std::ranges::count(p.claimed, false));
  out.variantHits = 0;
  for (const auto& [key, rec] : variants_)
    out.variantHits += rec->hits.load(std::memory_order_relaxed);
  return out;
}

std::vector<VariantInfo> VariantDispatcher::variants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VariantInfo> out;
  out.reserve(variants_.size());
  for (const auto& [key, rec] : variants_) {
    VariantInfo info;
    info.key = key;
    info.hits = rec->hits.load(std::memory_order_relaxed);
    info.entry = rec->target;
    info.codeBytes = rec->handle.codeSize();
    info.epoch = rec->epoch;
    for (const auto& way : ways_)
      if (way.load(std::memory_order_relaxed) == rec.get())
        info.inlineCached = true;
    out.push_back(info);
  }
  return out;
}

const void* VariantDispatcher::resolve(uint64_t key) {
  const uint64_t t0 = telemetry::nowNs();
  const void* target = fn_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    pollPendingLocked();
    auto it = variants_.find(key);
    if (it != variants_.end()) {
      IcRecord* rec = it->second.get();
      rec->hits.fetch_add(1, std::memory_order_relaxed);
      ++stats_.tableHits;
      telemetry::counter(telemetry::CounterId::DispatchTableHits).add();
      promoteWayLocked(rec);
      target = rec->target;
    } else {
      ++stats_.misses;
      ++windowMisses_;
      telemetry::counter(telemetry::CounterId::DispatchMisses).add();
      auto failed = failed_.find(key);
      if (failed == failed_.end() ||
          stats_.decayRounds >= failed->second.retryRound) {
        const uint64_t score = ++missScore_[key];
        maybeSpecializeLocked(key, score);
        auto installed = variants_.find(key);
        if (installed != variants_.end())
          target = installed->second->target;
      }
    }
    maybeDecayLocked();
    drainQuarantineLocked();
  }
  telemetry::histogram(telemetry::HistogramId::DispatchResolveNs)
      .record(telemetry::nowNs() - t0);
  return target;
}

std::map<uint64_t, std::unique_ptr<IcRecord>>::iterator
VariantDispatcher::coldestLocked() {
  auto coldest = variants_.end();
  uint64_t coldScore = UINT64_MAX;
  for (auto it = variants_.begin(); it != variants_.end(); ++it) {
    const uint64_t score = it->second->hits.load(std::memory_order_relaxed);
    if (score < coldScore) {
      coldScore = score;
      coldest = it;
    }
  }
  return coldest;
}

void VariantDispatcher::maybeSpecializeLocked(uint64_t key, uint64_t score) {
  if (events_ < options_.sampleCalls) return;
  if (score < options_.promoteThreshold) return;
  if (inFlightLocked(key)) return;
  if (variants_.size() >= options_.maxVariants) {
    // Hysteresis: the challenger must clearly beat the coldest variant's
    // decayed hit score, or the table would thrash under a shifting
    // distribution. A score decayed below promoteThreshold still counts as
    // the threshold, so a cold key's one-off burst past it cannot churn
    // the slot of a variant that has gone cold.
    auto coldest = coldestLocked();
    if (coldest == variants_.end()) return;
    const uint64_t coldScore = std::max(
        coldest->second->hits.load(std::memory_order_relaxed),
        options_.promoteThreshold);
    if (score / kDemoteMargin < coldScore) return;
    demoteLocked(coldest);
  }
  if (options_.asyncSpecialize) {
    submitLocked({key});
    return;
  }
  auto result = manager_.rewrite(config_, passes_, fn_, argsFor(key));
  if (!result.ok()) {
    failLocked(key, result.error());
    return;
  }
  installLocked(key, std::move(*result), score);
}

void VariantDispatcher::failLocked(uint64_t key, const Error& error) {
  // Back off: after its k-th failure a key is retried only 2^k decay rounds
  // later, so a hot key that never rewrites is not retraced every round.
  Failure& failure = failed_[key];
  ++failure.count;
  failure.retryRound = stats_.decayRounds +
                       (uint64_t{1} << std::min<uint64_t>(failure.count, 62));
  missScore_.erase(key);
  telemetry::counter(telemetry::CounterId::DispatchVariantFailures).add();
  flight::record(flight::Event::DispatchVariantFail,
                 reinterpret_cast<uint64_t>(fn_), key);
  BREW_LOG_INFO("dispatch variant %p/%llu failed: %s", fn_,
                static_cast<unsigned long long>(key), error.message().c_str());
}

bool VariantDispatcher::inFlightLocked(uint64_t key) const {
  for (const Pending& p : pending_)
    for (size_t i = 0; i < p.keys.size(); ++i)
      if (p.keys[i] == key && !p.claimed[i]) return true;
  return false;
}

void VariantDispatcher::submitLocked(std::vector<uint64_t> keys) {
  std::vector<RewriteItem> items;
  items.reserve(keys.size());
  for (const uint64_t key : keys) items.push_back({fn_, argsFor(key)});
  telemetry::counter(telemetry::CounterId::DispatchAsyncRespecs)
      .add(keys.size());
  Pending pending;
  pending.claimed.assign(keys.size(), false);
  pending.keys = std::move(keys);
  pending.batch = manager_.rewriteBatch(config_, passes_, std::move(items));
  pending_.push_back(std::move(pending));
}

void VariantDispatcher::installLocked(uint64_t key, CodeHandle handle,
                                      uint64_t seedScore) {
  auto existing = variants_.find(key);
  if (existing != variants_.end()) demoteLocked(existing);
  // Async results (single misses, epoch re-specialization batches) land
  // after the capacity check that queued them; keep the table bounded.
  if (variants_.size() >= options_.maxVariants) demoteLocked(coldestLocked());
  auto rec = std::make_unique<IcRecord>();
  rec->key = key;
  rec->target = handle.entry();
  rec->epoch = stats_.epoch;
  rec->handle = std::move(handle);
  // Seed the hit score so a fresh variant is not instantly the coldest.
  rec->hitsAtRound =
      std::min(std::max(seedScore, options_.promoteThreshold), kMaxSeedScore);
  rec->hits.store(rec->hitsAtRound, std::memory_order_relaxed);
  IcRecord* raw = rec.get();
  variants_[key] = std::move(rec);
  missScore_.erase(key);
  failed_.erase(key);
  ++stats_.promotions;
  telemetry::counter(telemetry::CounterId::DispatchPromotions).add();
  flight::record(flight::Event::DispatchInstall,
                 reinterpret_cast<uint64_t>(fn_), key);
  promoteWayLocked(raw);
}

void VariantDispatcher::promoteWayLocked(IcRecord* record) {
  size_t victim = kMaxWays;
  uint64_t victimScore = UINT64_MAX;
  for (size_t w = 0; w < kMaxWays; ++w) {
    IcRecord* cur = ways_[w].load(std::memory_order_relaxed);
    if (cur == record) return;  // already inline-cached
    if (cur == &sentinel_) {
      if (victimScore != 0 || victim == kMaxWays) {
        victim = w;
        victimScore = 0;  // empty way: best possible victim
      }
      continue;
    }
    const uint64_t score = cur->hits.load(std::memory_order_relaxed);
    if (score < victimScore) {
      victimScore = score;
      victim = w;
    }
  }
  if (victim == kMaxWays) return;
  // Replace only when strictly hotter (or the way is empty): an inline way
  // ping-ponging between two warm records would cost more than it saves.
  if (victimScore > 0 &&
      record->hits.load(std::memory_order_relaxed) <= victimScore)
    return;
  ways_[victim].store(record, std::memory_order_release);
}

void VariantDispatcher::demoteLocked(
    std::map<uint64_t, std::unique_ptr<IcRecord>>::iterator it) {
  IcRecord* raw = it->second.get();
  for (auto& way : ways_)
    if (way.load(std::memory_order_relaxed) == raw)
      way.store(&sentinel_, std::memory_order_release);
  flight::record(flight::Event::DispatchDemote,
                 reinterpret_cast<uint64_t>(fn_), raw->key);
  quarantine_.push_back(Retired{std::move(it->second), events_});
  variants_.erase(it);
  ++stats_.demotions;
  telemetry::counter(telemetry::CounterId::DispatchDemotions).add();
}

void VariantDispatcher::maybeDecayLocked() {
  // The window counts calls: the misses since the last round plus every
  // live variant's hits since then, so hit and miss scores share a clock.
  uint64_t calls = windowMisses_;
  for (const auto& [key, rec] : variants_) calls += gainedSinceRound(*rec);
  if (calls < options_.decayInterval) return;
  // Stub hits alone never reach the resolver, so one round may stand for
  // many elapsed windows: age the scores as that many rounds would have,
  // spreading each variant's gain evenly over them.
  const uint64_t rounds = calls / options_.decayInterval;
  const uint64_t shift = std::min<uint64_t>(rounds, 63);
  for (auto& [key, rec] : variants_) {
    const uint64_t perRound = gainedSinceRound(*rec) / rounds;
    rec->hitsAtRound =
        (rec->hitsAtRound >> shift) + perRound - (perRound >> shift);
    rec->hits.store(rec->hitsAtRound, std::memory_order_relaxed);
  }
  // A key decayed to zero keeps its entry, so a cold key that misses about
  // once a window does not allocate and free a node every round. A window
  // holds at most decayInterval misses; past that many keys, prune the idle.
  const bool prune = missScore_.size() > options_.decayInterval;
  for (auto it = missScore_.begin(); it != missScore_.end();) {
    it->second >>= shift;
    it = prune && it->second == 0 ? missScore_.erase(it) : std::next(it);
  }
  windowMisses_ = 0;
  stats_.decayRounds += rounds;
  telemetry::counter(telemetry::CounterId::DispatchDecayRounds).add(rounds);
}

void VariantDispatcher::pollPendingLocked() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = *it;
    bool open = false;
    for (size_t i = 0; i < p.keys.size(); ++i) {
      if (p.claimed[i]) continue;
      if (!p.batch->done(i)) {
        open = true;
        continue;
      }
      p.claimed[i] = true;
      if (p.batch->ok(i))
        installLocked(p.keys[i], p.batch->handle(i),
                      options_.promoteThreshold);
      else
        failLocked(p.keys[i], p.batch->error(i));
    }
    it = open ? std::next(it) : pending_.erase(it);
  }
}

void VariantDispatcher::drainQuarantineLocked() {
  while (quarantine_.size() > kQuarantineKeep &&
         quarantine_.front().retiredAt + kQuarantineGraceEvents < events_)
    quarantine_.pop_front();
}

void VariantDispatcher::seedHot(std::span<const uint64_t> hotKeys,
                                uint64_t observedCalls) {
  if (!valid()) return;  // no stub to route the seeded keys through
  std::lock_guard<std::mutex> lock(mu_);
  events_ = std::max({events_, observedCalls,
                      static_cast<uint64_t>(options_.sampleCalls)});
  for (const uint64_t key : hotKeys) {
    if (variants_.size() >= options_.maxVariants) break;
    if (variants_.count(key) != 0) continue;
    auto result = manager_.rewrite(config_, passes_, fn_, argsFor(key));
    if (result.ok())
      installLocked(key, std::move(*result), options_.promoteThreshold);
    else
      failLocked(key, result.error());
  }
}

void VariantDispatcher::bumpEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.epoch;
  ++stats_.epochBumps;
  telemetry::counter(telemetry::CounterId::DispatchEpochBumps).add();
  flight::record(flight::Event::DispatchEpochBump,
                 reinterpret_cast<uint64_t>(fn_), stats_.epoch);
  std::vector<uint64_t> hot;
  hot.reserve(variants_.size());
  for (const auto& [key, rec] : variants_) hot.push_back(key);
  while (!variants_.empty()) demoteLocked(variants_.begin());
  missScore_.clear();
  failed_.clear();
  // The previous epoch's rewrites still in flight would install stale
  // variants: forget them (their workers finish into the dropped batches).
  pending_.clear();
  if (hot.empty()) return;
  // Respecialize the previously hot keys for the new epoch as one batch on
  // the worker pool; makeCacheKey picks up the new pointee/region bytes,
  // so unchanged inputs simply hit the cache.
  submitLocked(std::move(hot));
}

bool VariantDispatcher::withDispatcher(
    const void* subject, const std::function<void(VariantDispatcher&)>& fn) {
  DispatcherRegistry& registry = dispatcherRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (VariantDispatcher* d : registry.all) {
    if (d->subject() == subject) {
      fn(*d);
      return true;
    }
  }
  return false;
}

DispatchStats VariantDispatcher::aggregate(size_t* functions) {
  DispatcherRegistry& registry = dispatcherRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  DispatchStats total;
  for (const VariantDispatcher* d : registry.all) {
    const DispatchStats s = d->stats();
    total.variantsLive += s.variantsLive;
    total.variantHits += s.variantHits;
    total.tableHits += s.tableHits;
    total.misses += s.misses;
    total.promotions += s.promotions;
    total.demotions += s.demotions;
    total.decayRounds += s.decayRounds;
    total.epochBumps += s.epochBumps;
    total.pendingAsync += s.pendingAsync;
    total.epoch = std::max(total.epoch, s.epoch);
  }
  if (functions != nullptr) *functions = registry.all.size();
  return total;
}

}  // namespace brew
