// Reporting shared by the workloads: the end-to-end metrics of an untraced
// run, the cold-request ledger, and the hit-path and decoder probes of the
// layer panel.
#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

namespace {

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

brew::SpecManager::Options managerOptions(const RunOptions& options) {
  brew::SpecManager::Options o;
  o.workers = options.workers;
  return o;
}

void reportEndToEnd(Outcome& out, const std::vector<double>& setupSeconds,
                    OpLog& ops, double tailQ) {
  out.add("setup_s", median(setupSeconds), "s");
  out.add("peak_rss_mb", peakRssMb(), "MB");
  out.add("op_vs_ref_p50", ops.relQuantile(0.5), "ratio");
  out.add("op_vs_ref_tail", ops.relQuantile(tailQ), "ratio");
  out.add("op_vs_ref_mean", ops.relMean(), "ratio");
}

void reportTraced(Outcome& out, OpLog& ops) {
  out.add("traced.op_vs_ref_p50", ops.relQuantile(0.5), "ratio");
  out.add("traced.op_vs_ref_mean", ops.relMean(), "ratio");
  out.add("traced.op_us_p50", ops.quantile(0.5), "us");
}

void coldLedger(const RunOptions& options,
                const std::vector<ColdRequest>& requests, int rounds,
                Spans& spans, Outcome& out) {
  Ledger ledger;
  for (int round = 0; round < rounds; ++round) {
    brew::SpecManager manager(managerOptions(options));
    // Whichever of the pair runs second finds warmer caches, so the order
    // alternates from round to round and the warmth cancels in the means.
    const bool replayFirst = round % 2 == 1;
    for (const ColdRequest& r : requests) {
      if (replayFirst) ledger.replay(r, spans);
      const uint64_t t0 = nowNs();
      bool ok = false;
      {
        auto span = spans.span(SpanId::SpecRewrite);
        ok = manager.rewrite(r.config, r.passes, r.fn, r.args).ok();
      }
      const double liveUs = (nowNs() - t0) / 1e3;
      if (!ok) out.mismatch("cold rewrite failed");
      if (!replayFirst) ledger.replay(r, spans);
      ledger.records.back().liveUs = liveUs;
    }
  }
  ledger.report(out);
}

void panelDecode(const std::vector<const void*>& subjects, Spans& spans,
                 Outcome& out) {
  constexpr int kPasses = 200;
  constexpr size_t kMaxInstrs = 1 << 16;
  std::vector<double> perInstr;
  for (int pass = 0; pass < kPasses; ++pass) {
    const uint64_t t0 = nowNs();
    size_t decoded = 0;
    for (const void* fn : subjects)
      decoded += decodeSubject(fn, kMaxInstrs, spans);
    perInstr.push_back(static_cast<double>(nowNs() - t0) /
                       static_cast<double>(std::max<size_t>(decoded, 1)));
  }
  out.add("isa.decode_ns_per_instr", median(perInstr), "ns");
}

void panelHitPath(brew::SpecManager& manager,
                  const std::vector<ColdRequest>& cached,
                  const brew::CacheStats& loopStats, Spans& spans,
                  Outcome& out) {
  constexpr int kRounds = 64;
  constexpr int kBatch = 16;
  std::vector<brew::CacheKey> keys;
  for (const ColdRequest& r : cached)
    keys.push_back(brew::makeCacheKey(r.config, r.passes, r.fn, r.args));
  std::vector<double> keyNs, lookupNs, hitNs;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < cached.size(); ++i) {
      const ColdRequest& r = cached[i];
      uint64_t t0 = nowNs();
      for (int b = 0; b < kBatch; ++b) {
        auto span = spans.span(SpanId::CacheKey);
        brew::CacheKey key =
            brew::makeCacheKey(r.config, r.passes, r.fn, r.args);
        if (!(key == keys[i])) out.mismatch("cache key is not deterministic");
      }
      keyNs.push_back(static_cast<double>(nowNs() - t0) / kBatch);

      t0 = nowNs();
      for (int b = 0; b < kBatch; ++b) {
        auto span = spans.span(SpanId::CacheLookup);
        if (!manager.cache().lookup(keys[i]))
          out.mismatch("cached entry missing on lookup");
      }
      lookupNs.push_back(static_cast<double>(nowNs() - t0) / kBatch);

      t0 = nowNs();
      for (int b = 0; b < kBatch; ++b) {
        auto span = spans.span(SpanId::SpecRewrite);
        auto hit = manager.rewrite(r.config, r.passes, r.fn, r.args);
        if (!hit.ok() || hit->entry() == nullptr)
          out.mismatch("cached rewrite failed");
      }
      hitNs.push_back(static_cast<double>(nowNs() - t0) / kBatch);
    }
  }
  // Means, not medians: the requests mix subjects of different key sizes,
  // and a median would pick a different subject for each statistic.
  out.add("spec_manager.key_ns", mean(keyNs), "ns");
  out.add("spec_manager.hit_ns", mean(hitNs), "ns");
  out.add("code_cache.lookup_ns", mean(lookupNs), "ns");
  const double lookups = static_cast<double>(loopStats.hits + loopStats.misses);
  out.add("code_cache.hit_share", lookups == 0 ? 0.0 : loopStats.hits / lookups,
          "share");
  out.add("code_cache.fastpath_share",
          loopStats.hits == 0
              ? 0.0
              : static_cast<double>(loopStats.fastpathHits) / loopStats.hits,
          "share");
  out.add("code_cache.evictions", static_cast<double>(loopStats.evictions),
          "count");
}

}  // namespace perfbench
