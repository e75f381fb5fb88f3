// respecialize: a seeded stream of SpecManager::rewrite requests over the
// library subjects — the flat stencil with seeded random stencils, its
// grouped form, and the PGAS reader over seeded domain-map-style views, in
// turn.
// About 5% of requests carry a new key (cold trace, passes, emit, install);
// the rest repeat one of the 32 newest keys, drawn uniformly. The cache byte
// budget holds those 32 plus a few older keys, so repeats hit and each new
// key evicts an old one. The rewrite pipeline and the cache do almost all
// the work.
#include <cstring>
#include <memory>

#include "pgas/pgas.h"
#include "pgas/runtime.hpp"
#include "stencil/stencil.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using brew::ArgValue;

constexpr int kXs = 64;               // row stride the stencils are keyed on
constexpr int kRange = 2;             // stencil offsets in [-2, 2]^2
constexpr size_t kWindow = 32;        // newest keys a repeat draws from
constexpr double kNewKeyShare = 0.05;
// Every entry here maps one page: the budget holds the window and 8 older
// keys, so eviction drops keys that left the window, not ones in it.
constexpr size_t kCacheBytes = (kWindow + 8) * 4096;
constexpr long kPgasElems = 4096;
// Cold requests a traced run replays layer by layer (a fixed prefix, so the
// tracer.* / ir.* counts repeat exactly for a seed).
constexpr uint64_t kLedgerMisses = 256;
// Requests per pair of reference operations (the pair costs about 10 mean
// requests).
constexpr uint64_t kRefEvery = 64;
// Weight of the lookup reference in the reference of a miss.
constexpr double kMissLookups = 4.0;

enum Subject { kFlat = 0, kGrouped = 1, kPgas = 2 };

struct Key {
  Subject subject = kFlat;
  brew_stencil flat{};
  brew_gstencil grouped{};
  brew_pgas_view view{};
};

uint64_t rewriteAttempts() {
  return brew::telemetry::counter(brew::telemetry::CounterId::RewriteAttempts)
      .value();
}

class Stream {
 public:
  explicit Stream(uint64_t seed)
      : rng_(seed),
        runtime_(brew::pgas::Runtime::Options{
            .ranks = 4, .myRank = 0, .elementsPerRank = kPgasElems}),
        probe_(kXs, kXs),
        ring_(kWindow) {
    probe_.fillDeterministic(seed + 1);
    for (int rank = 0; rank < runtime_.ranks(); ++rank)
      for (long i = 0; i < runtime_.globalLength(); ++i)
        runtime_.segment(rank)[i] = rank * 1000.0 + static_cast<double>(i);
    configs_[kFlat] = stencilConfig(sizeof(brew_stencil));
    configs_[kGrouped] = stencilConfig(sizeof(brew_gstencil));
    configs_[kPgas] = pgasReadConfig();
  }

  // Fills the whole window with fresh keys (set-up).
  void fill() {
    for (size_t i = 0; i < kWindow; ++i) newKey();
  }

  ColdRequest request(size_t slot) const {
    const Key& key = ring_[slot];
    ColdRequest r;
    r.config = configs_[key.subject];
    switch (key.subject) {
      case kFlat:
        r.fn = reinterpret_cast<const void*>(&brew_stencil_apply);
        r.args = {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
                  ArgValue::fromPtr(&key.flat)};
        break;
      case kGrouped:
        r.fn = reinterpret_cast<const void*>(&brew_stencil_apply_grouped);
        r.args = {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
                  ArgValue::fromPtr(&key.grouped)};
        break;
      case kPgas:
        r.fn = reinterpret_cast<const void*>(&brew_pgas_read);
        r.args = {ArgValue::fromPtr(&key.view), ArgValue::fromInt(0)};
        break;
    }
    return r;
  }

  // The next request of the stream; `*fresh` tells whether it carries a
  // new key.
  ColdRequest next(bool* fresh) {
    *fresh = rng_.chance(kNewKeyShare);
    return request(*fresh ? newKey() : rng_.below(kWindow));
  }

  // Calls `entry` and the original on probe inputs; true when bit-exact.
  bool check(const ColdRequest& r, const void* entry) const {
    if (entry == nullptr) return false;
    if (r.fn == reinterpret_cast<const void*>(&brew_pgas_read)) {
      const auto* view = reinterpret_cast<const brew_pgas_view*>(r.args[0].bits);
      const auto spec = reinterpret_cast<brew_pgas_read_fn>(entry);
      // Local ends and one remote index (checked, never timed).
      const long local[2] = {view->local_start, view->local_end - 1};
      for (long i : local)
        if (spec(view, i) != brew_pgas_read(view, i)) return false;
      const long remote = view->local_end < view->length ? view->local_end : 0;
      return spec(view, remote) == brew_pgas_read(view, remote);
    }
    const double* cells[2] = {probe_.data() + 3 * kXs + 3,
                              probe_.data() + (kXs - 4) * kXs + kXs / 2};
    for (const double* m : cells) {
      double want = 0, got = 0;
      if (r.fn == reinterpret_cast<const void*>(&brew_stencil_apply)) {
        const auto* s = reinterpret_cast<const brew_stencil*>(r.args[2].bits);
        want = brew_stencil_apply(m, kXs, s);
        got = reinterpret_cast<brew_stencil_fn>(entry)(m, kXs, s);
      } else {
        const auto* g = reinterpret_cast<const brew_gstencil*>(r.args[2].bits);
        want = brew_stencil_apply_grouped(m, kXs, g);
        got = reinterpret_cast<brew_gstencil_fn>(entry)(m, kXs, g);
      }
      if (std::memcmp(&want, &got, sizeof want) != 0) return false;
    }
    return true;
  }

 private:
  size_t newKey() {
    const size_t slot = head_;
    head_ = (head_ + 1) % kWindow;
    Key& key = ring_[slot];
    // Subjects take turns, so every seed has the same mix of them.
    key.subject = static_cast<Subject>(keysMade_++ % 3);
    if (key.subject == kPgas) {
      // A domain-map-style view: seeded block boundaries over 4 ranks.
      const long length = runtime_.globalLength();
      const int rank = static_cast<int>(rng_.below(4));
      const long start = static_cast<long>(rng_.below(length / 2));
      key.view.local_base = runtime_.segment(rank);
      key.view.local_start = start;
      key.view.local_end =
          start + 1 + static_cast<long>(rng_.below(length / 2));
      key.view.length = length;
      key.view.rt = runtime_.handle();
    } else {
      key.flat = brew::stencil::randomStencil(
          rng_, 4 + static_cast<int>(rng_.below(6)), kRange);
      key.grouped = brew::stencil::groupByCoefficient(key.flat);
    }
    return slot;
  }

  brew::Prng rng_;
  brew::pgas::Runtime runtime_;
  brew::stencil::Matrix probe_;
  std::vector<Key> ring_;  // fixed size: KnownPtr arguments point into it
  size_t head_ = 0;
  uint64_t keysMade_ = 0;
  brew::Config configs_[3];
};

brew::SpecManager::Options respecializeOptions(const RunOptions& options) {
  brew::SpecManager::Options o = managerOptions(options);
  o.cacheBytes = kCacheBytes;
  return o;
}

}  // namespace

void runRespecialize(const RunOptions& options, Outcome& out) {
  Spans spans(options.trace);
  std::vector<double> setupSeconds;
  std::unique_ptr<brew::SpecManager> manager;
  std::unique_ptr<Stream> stream;
  // Set-up: a manager and a window of cold keys, each rewritten once.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stream.reset();
    manager.reset();
    bool ok = false;
    setupSeconds.push_back(coldSetupSeconds(
        [&] {
          manager =
              std::make_unique<brew::SpecManager>(respecializeOptions(options));
          stream = std::make_unique<Stream>(options.seed);
          stream->fill();
          for (size_t slot = 0; slot < kWindow; ++slot) {
            const ColdRequest r = stream->request(slot);
            auto handle = manager->rewrite(r.config, r.passes, r.fn, r.args);
            if (!handle.ok() || !stream->check(r, handle->entry()))
              return false;
          }
          return true;
        },
        &ok));
    if (!ok) {
      out.attempt(false);
      out.mismatch("set-up specialization differs from the original");
      return;
    }
  }
  manager->cache().resetStats();

  // The traced run replays the first kLedgerMisses new-key misses; odd ones
  // are replayed before the live request and even ones after, so the warmth
  // the first of a pair leaves behind cancels in the means.
  Ledger ledger;
  // Two classes of requests. Hits are latency-bound (key hashing, a locked
  // probe, reference counts): their reference is the lookup. Misses emulate
  // instructions (compute-bound) and probe, hash and allocate on the way
  // (latency-bound): their reference is the compute reference plus
  // kMissLookups lookups, about half of each. Over 8 runs the p99 of misses
  // spread 0.15 in absolute time, 0.04 over the compute reference alone and
  // 0.01 over the two.
  enum { kHit = 0, kMiss = 1 };
  References references;
  uint64_t requests = 0;
  const uint64_t start = nowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(options.seconds * 1e9);
  OpLog ops(start, options.seconds, 2);
  for (uint64_t now = start; now < deadline;) {
    if (requests++ % kRefEvery == 0) {
      const double lookup = references.lookup();
      ops.addRef(kHit, lookup);
      ops.addRef(kMiss, references.compute() + kMissLookups * lookup);
    }
    bool fresh = false;
    const ColdRequest r = stream->next(&fresh);
    const bool replay =
        spans.on() && fresh && ledger.records.size() < kLedgerMisses;
    const bool replayFirst = replay && ledger.records.size() % 2 == 1;
    if (replayFirst) ledger.replay(r, spans);
    spans.beginRequest();
    const uint64_t attempts = rewriteAttempts();
    const uint64_t t0 = nowNs();
    brew::Result<brew::CodeHandle> handle = [&] {
      auto span = spans.span(SpanId::SpecRewrite);
      return manager->rewrite(r.config, r.passes, r.fn, r.args);
    }();
    now = nowNs();
    const double us = (now - t0) / 1e3;
    const bool miss = rewriteAttempts() != attempts;
    ops.add(miss ? kMiss : kHit, us, now);
    const bool ok = handle.ok() && stream->check(r, handle->entry());
    if (handle.ok() && !ok)
      out.mismatch("specialization differs from the original");
    out.attempt(ok);
    if (!replay) continue;
    if (!miss) {
      // A new key equal to one still cached: no miss to pair it with.
      if (replayFirst) ledger.records.pop_back();
      continue;
    }
    if (!replayFirst) ledger.replay(r, spans);
    ledger.records.back().liveUs = us;
  }

  if (!options.trace) {
    reportEndToEnd(out, setupSeconds, ops, 0.99);
    return;
  }
  const brew::CacheStats loopStats = manager->cache().stats();
  reportTraced(out, ops);
  // The acceptance check of the ledger: the replayed parts of a miss must
  // not take longer than the live miss itself.
  if (ledger.report(out) < 0)
    out.mismatch("cold-request ledger parts exceed the live miss");
  panelDecode({reinterpret_cast<const void*>(&brew_stencil_apply),
               reinterpret_cast<const void*>(&brew_stencil_apply_grouped),
               reinterpret_cast<const void*>(&brew_pgas_read)},
              spans, out);
  // Hit-path probes over keys of the window, which the cache holds.
  std::vector<ColdRequest> recent;
  for (size_t slot = 0; slot < 8; ++slot) {
    ColdRequest r = stream->request(slot);
    if (manager->rewrite(r.config, r.passes, r.fn, r.args).ok())
      recent.push_back(std::move(r));
  }
  panelHitPath(*manager, recent, loopStats, spans, out);
  panelKernel(options, spans, out);
  panelDispatch(options, spans, out);
  panelPersist(options, spans, out);
  if (!options.spansPath.empty()) spans.write(options.spansPath);
}

}  // namespace perfbench
