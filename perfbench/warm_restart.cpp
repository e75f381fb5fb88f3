// warm_restart: in-process restart over a persistent cache directory.
// Set-up populates a private directory with a small kernel (a 5-point
// stencil) and a large one (the 4096-step chain of chain.c). Each timed
// operation builds a fresh SpecManager over that directory, requests both
// kernels and runs each once: the persist probe and load do the work, and
// the tracer must run zero times.
#include <cstring>
#include <filesystem>
#include <memory>

#include "chain.h"
#include "stencil/stencil.hpp"
#include "support/persist_cache.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using brew::ArgValue;

constexpr int kXs = 64;

uint64_t rewriteAttempts() {
  return brew::telemetry::counter(brew::telemetry::CounterId::RewriteAttempts)
      .value();
}

class PersistRig {
 public:
  PersistRig(const RunOptions& options, std::string dir)
      : options_(options), dir_(std::move(dir)), probe_(kXs, kXs) {
    brew::Prng rng(options.seed);
    stencil_ = brew::stencil::randomStencil(rng, 5, 1);
    salt_ = 7 + 13 * rng.below(64);
    probe_.fillDeterministic(options.seed);
    ColdRequest small{stencilConfig(sizeof stencil_), {},
                      reinterpret_cast<const void*>(&brew_stencil_apply),
                      {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
                       ArgValue::fromPtr(&stencil_)}};
    brew::Config chainConfig;
    chainConfig.setParamKnown(1);  // k known; x stays a runtime value
    chainConfig.setReturnKind(brew::ReturnKind::Int);
    ColdRequest large{chainConfig, {},
                      reinterpret_cast<const void*>(&perfbench_chain),
                      {ArgValue::fromInt(0), ArgValue::fromInt(salt_)}};
    requests = {small, large};
  }

  brew::SpecManager::Options storeOptions() const {
    brew::SpecManager::Options o = managerOptions(options_);
    o.cacheDir = dir_;
    return o;
  }

  // Cold population of an empty store; true when both kernels were written.
  bool populate() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    brew::SpecManager manager(storeOptions());
    if (manager.persistStore() == nullptr) return false;
    for (const ColdRequest& r : requests) {
      auto handle = manager.rewrite(r.config, r.passes, r.fn, r.args);
      if (!handle.ok() || !check(r, handle->entry())) return false;
    }
    return manager.cache().stats().persistWrites == requests.size();
  }

  // One restart: fresh manager, every kernel requested and run once.
  // Returns false when a result is wrong, a kernel missed the store or the
  // tracer ran.
  bool restart(Spans& spans, Outcome& out, uint64_t* readyNs) {
    const uint64_t attempts = rewriteAttempts();
    const uint64_t t0 = nowNs();
    std::unique_ptr<brew::SpecManager> manager = [&] {
      auto span = spans.span(SpanId::PersistOpen);
      return std::make_unique<brew::SpecManager>(storeOptions());
    }();
    bool ok = true;
    for (const ColdRequest& r : requests) {
      brew::Result<brew::CodeHandle> handle = [&] {
        auto span = spans.span(SpanId::SpecRewrite);
        return manager->rewrite(r.config, r.passes, r.fn, r.args);
      }();
      if (!handle.ok() || !check(r, handle->entry())) {
        out.mismatch("restored kernel differs from the original");
        ok = false;
      }
    }
    *readyNs = nowNs() - t0;
    const brew::CacheStats s = manager->cache().stats();
    persistHits += s.persistHits;
    persistMisses += s.persistMisses;
    persistRejects += s.persistRejects;
    ok = ok && s.persistHits == requests.size();
    ok = ok && rewriteAttempts() == attempts;
    return ok;
  }

  // persist.* metrics: direct probes of both entries, re-writes of the
  // small one under a key of its own, and cold compiles for comparison.
  void report(Spans& spans, Outcome& out) {
    brew::SpecManager manager(storeOptions());
    brew::persist::Store* store = manager.persistStore();
    double probeUs[2] = {};
    double compileUs[2] = {};
    double writeUs = 0;
    if (store != nullptr) {
      for (size_t k = 0; k < requests.size(); ++k) {
        const ColdRequest& r = requests[k];
        const brew::CacheKey key =
            brew::makeCacheKey(r.config, r.passes, r.fn, r.args);
        std::vector<double> probes, compiles;
        for (int i = 0; i < 15; ++i) {
          const uint64_t t0 = nowNs();
          auto span = spans.span(SpanId::PersistProbe);
          brew::persist::ProbeResult probe =
              store->probe(r.fn, key.configFp, key.argsHash);
          probes.push_back((nowNs() - t0) / 1e3);
          if (!probe.entry.has_value()) out.mismatch("persist probe missed");
        }
        for (int i = 0; i < 3; ++i) {
          const uint64_t t0 = nowNs();
          auto span = spans.span(SpanId::Compile);
          auto compiled = brew::compileSpecialization(r.config, r.passes, r.fn,
                                                      r.args);
          compiles.push_back((nowNs() - t0) / 1e3);
          if (!compiled.ok()) out.mismatch("cold compile failed");
          if (k == 0 && i == 0 && compiled.ok()) {
            const brew::CodeBlock* block = compiled->get();
            std::vector<double> writes;
            for (int w = 0; w < 15; ++w) {
              brew::persist::WriteRequest req;
              req.fn = r.fn;
              req.configFp = key.configFp;
              req.argsHash = key.argsHash ^ 0x77726974650aULL;
              req.bytes = block->memory.data();
              req.size = block->memory.size();
              req.codeBytes =
                  static_cast<uint32_t>(block->emitStats.codeBytes);
              req.poolBytes =
                  static_cast<uint32_t>(block->emitStats.poolBytes);
              req.instructions =
                  static_cast<uint32_t>(block->emitStats.instructions);
              req.blockUnits = static_cast<uint32_t>(block->blockUnits());
              req.portable = block->emitStats.portable;
              const uint64_t w0 = nowNs();
              auto wspan = spans.span(SpanId::PersistWrite);
              if (!store->write(req)) out.mismatch("persist write failed");
              writes.push_back((nowNs() - w0) / 1e3);
            }
            writeUs = median(writes);
          }
        }
        probeUs[k] = median(probes);
        compileUs[k] = median(compiles);
      }
    }
    out.add("persist.probe_us_small", probeUs[0], "us");
    out.add("persist.probe_us_large", probeUs[1], "us");
    out.add("persist.write_us", writeUs, "us");
    const double probes = static_cast<double>(persistHits + persistMisses);
    out.add("persist.hit_share", probes == 0 ? 0.0 : persistHits / probes,
            "share");
    out.add("persist.rejects", static_cast<double>(persistRejects), "count");
    out.add("persist.probe_vs_compile_small",
            compileUs[0] > 0 ? probeUs[0] / compileUs[0] : 0.0, "ratio");
    out.add("persist.probe_vs_compile_large",
            compileUs[1] > 0 ? probeUs[1] / compileUs[1] : 0.0, "ratio");
  }

  std::vector<ColdRequest> requests;  // small kernel, large kernel
  uint64_t persistHits = 0, persistMisses = 0, persistRejects = 0;

 private:
  bool check(const ColdRequest& r, const void* entry) const {
    if (entry == nullptr) return false;
    if (r.fn == reinterpret_cast<const void*>(&perfbench_chain)) {
      const uint64_t x = 11 + salt_;
      return reinterpret_cast<perfbench_chain_fn>(entry)(x, salt_) ==
             perfbench_chain(x, salt_);
    }
    const double* m = probe_.data() + 5 * kXs + 7;
    const double want = brew_stencil_apply(m, kXs, &stencil_);
    const double got =
        reinterpret_cast<brew_stencil_fn>(entry)(m, kXs, &stencil_);
    return std::memcmp(&want, &got, sizeof want) == 0;
  }

  const RunOptions& options_;
  std::string dir_;
  brew_stencil stencil_{};
  uint64_t salt_ = 0;
  brew::stencil::Matrix probe_;
};

}  // namespace

void runWarmRestart(const RunOptions& options, Outcome& out) {
  Spans spans(options.trace);
  std::vector<double> setupSeconds;
  std::unique_ptr<PersistRig> rig;
  // Set-up: each repetition populates a fresh directory; the last is kept.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    bool ok = false;
    setupSeconds.push_back(coldSetupSeconds(
        [&] {
          rig = std::make_unique<PersistRig>(
              options, options.workDir + "/store-" + std::to_string(rep));
          return rig->populate();
        },
        &ok));
    out.attempt(ok);
    if (!ok) {
      out.mismatch("warm_restart set-up could not populate the store");
      return;
    }
  }

  // One class of operations. A restart is system calls (open, read, mmap,
  // mprotect, a page-server thread started and joined) and latency-bound
  // steps (checksums, lookups); its time does not follow the compute-bound
  // sweeps (a reference sweep spreads 0.32 over 8 runs where restarts
  // spread 0.10). Of the references tried (the compute sweep, the lookup,
  // the lookup plus file and mapping calls, the lookup plus a thread
  // started and joined) the lookup tracks it best: over 12 interleaved runs
  // restarts moved by up to 16% and their ratio to it by up to 8%.
  References references;
  const uint64_t start = nowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(options.seconds * 1e9);
  OpLog ops(start, options.seconds, 1);
  for (uint64_t now = start; now < deadline;) {
    ops.addRef(0, references.lookup());
    spans.beginRequest();
    uint64_t readyNs = 0;
    bool ok = false;
    {
      auto span = spans.span(SpanId::Request);
      ok = rig->restart(spans, out, &readyNs);
    }
    out.attempt(ok);
    now = nowNs();
    ops.add(0, readyNs / 1e3, now);
  }

  if (!options.trace) {
    reportEndToEnd(out, setupSeconds, ops, 0.95);
    return;
  }
  reportTraced(out, ops);
  rig->report(spans, out);
  coldLedger(options, rig->requests, 4, spans, out);
  panelDecode({reinterpret_cast<const void*>(&brew_stencil_apply),
               reinterpret_cast<const void*>(&perfbench_chain)},
              spans, out);
  {
    brew::SpecManager manager(rig->storeOptions());
    for (const ColdRequest& r : rig->requests)
      (void)manager.rewrite(r.config, r.passes, r.fn, r.args);
    panelHitPath(manager, rig->requests, manager.cache().stats(), spans, out);
  }
  panelKernel(options, spans, out);
  panelDispatch(options, spans, out);
  if (!options.spansPath.empty()) spans.write(options.spansPath);
}

void panelPersist(const RunOptions& options, Spans& spans, Outcome& out) {
  PersistRig rig(options, options.workDir + "/panel-store");
  if (!rig.populate()) {
    out.mismatch("persist panel could not populate the store");
    return;
  }
  for (int i = 0; i < 16; ++i) {
    uint64_t readyNs = 0;
    out.attempt(rig.restart(spans, out, &readyNs));
  }
  rig.report(spans, out);
}

}  // namespace perfbench
