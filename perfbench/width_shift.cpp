// width_shift: brew_stencil_sweep over matrices of 12 widths, every call
// through one VariantDispatcher entry keyed on the width parameter, with the
// product's default DispatchOptions. A seeded hot set of 3 widths rotates
// every phase; each sweep updates about the same number of cells. Dispatch
// (stub hits, resolver, promotion and demotion) and the generated code do
// the work, with a rewrite whenever a width earns a variant.
#include <algorithm>
#include <cstring>
#include <memory>

#include "core/dispatch.hpp"
#include "stencil/stencil.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using brew::ArgValue;

constexpr int kWidths[] = {18, 22, 26, 30, 34, 38, 42, 46, 50, 54, 58, 62};
constexpr int kWidthCount = static_cast<int>(std::size(kWidths));
constexpr int kHotWidths = 3;
constexpr int kCellsPerSweep = 4096;
constexpr int kSweepsPerPhase = 24000;
// The share of sweeps on the hot set; the rest is a uniform cold tail over
// all widths. The 94/6 split is the churn traffic of bench_e7_variant_churn.
constexpr double kHotShare = 0.94;
constexpr int kCheckEvery = 8;      // sweeps between oracle checks

using sweep_t = void (*)(double*, const double*, int, int, brew_stencil_fn,
                         const brew_stencil*);

int rowsFor(int width) { return kCellsPerSweep / (width - 2) + 2; }

// A dispatcher over brew_stencil_sweep with the cell function and stencil
// known and the sweep's own loops kept (BREW_FN_NOUNROLL semantics), so each
// width-keyed variant inlines a cell update specialized for that row stride.
class SweepDispatch {
 public:
  explicit SweepDispatch(brew::SpecManager& manager, uint64_t seed)
      : stencil_(brew::stencil::fivePoint()) {
    brew::Config config;
    config.setParamKnown(4);
    config.setParamKnownPtr(5, sizeof stencil_);
    config.setReturnKind(brew::ReturnKind::Void);
    config.setFunctionOptions(
        reinterpret_cast<const void*>(&brew_stencil_sweep),
        brew::FunctionOptions{.inlineCalls = true, .forceUnknownResults = true});
    std::vector<ArgValue> proto = {
        ArgValue::fromPtr(nullptr), ArgValue::fromPtr(nullptr),
        ArgValue::fromInt(0),       ArgValue::fromInt(0),
        ArgValue::fromPtr(reinterpret_cast<const void*>(&brew_stencil_apply)),
        ArgValue::fromPtr(&stencil_)};
    request_ = ColdRequest{config, {},
                           reinterpret_cast<const void*>(&brew_stencil_sweep),
                           proto};
    request_.config.setParamKnown(2);
    dispatcher_ = std::make_unique<brew::VariantDispatcher>(
        manager, reinterpret_cast<const void*>(&brew_stencil_sweep), 2, proto,
        config);
    size_t most = 0;
    for (int w : kWidths)
      most = std::max(most, static_cast<size_t>(w) * rowsFor(w));
    src_.resize(most);
    dst_.resize(most);
    ref_.resize(most);
    brew::Prng rng(seed);
    for (double& v : src_) v = rng.uniform() * 2.0 - 1.0;
  }

  bool valid() const { return dispatcher_->valid(); }
  brew::VariantDispatcher& dispatcher() { return *dispatcher_; }

  // One sweep of `rows` rows through the dispatcher entry; returns ns.
  uint64_t sweep(int width, int rows) {
    const auto entry = dispatcher_->as<sweep_t>();
    const uint64_t t0 = nowNs();
    entry(dst_.data(), src_.data(), width, rows, &brew_stencil_apply,
          &stencil_);
    return nowNs() - t0;
  }
  // The same sweep on a variant's own entry, bypassing the stub.
  uint64_t sweepDirect(const void* variant, int width, int rows) {
    const auto entry = reinterpret_cast<sweep_t>(variant);
    const uint64_t t0 = nowNs();
    entry(dst_.data(), src_.data(), width, rows, &brew_stencil_apply,
          &stencil_);
    return nowNs() - t0;
  }

  // Oracle: the original sweep with the original cell function; the last
  // dispatched sweep must match it bit for bit. `*origNs` receives the
  // original sweep's time.
  bool check(int width, int rows, uint64_t* origNs = nullptr) {
    const size_t n = static_cast<size_t>(width) * rows;
    std::fill(ref_.begin(), ref_.begin() + n, 0.0);
    const uint64_t t0 = nowNs();
    brew_stencil_sweep(ref_.data(), src_.data(), width, rows,
                       &brew_stencil_apply, &stencil_);
    if (origNs != nullptr) *origNs = nowNs() - t0;
    for (int y = 1; y < rows - 1; ++y)
      if (std::memcmp(dst_.data() + y * width + 1, ref_.data() + y * width + 1,
                      sizeof(double) * (width - 2)) != 0)
        return false;
    return true;
  }

  bool hasVariant(uint64_t width, const void** entry = nullptr) const {
    for (const brew::VariantInfo& v : dispatcher_->variants())
      if (v.key == width) {
        if (entry != nullptr) *entry = v.entry;
        return true;
      }
    return false;
  }

  // The request the dispatcher issues for a width (ledger replays).
  ColdRequest requestFor(int width) const {
    ColdRequest r = request_;
    r.args[2] = ArgValue::fromInt(static_cast<uint64_t>(width));
    return r;
  }

 private:
  brew_stencil stencil_;
  ColdRequest request_;
  std::unique_ptr<brew::VariantDispatcher> dispatcher_;
  std::vector<double> src_, dst_, ref_;
};

// dispatch.overhead_ns_per_call: tiny one-row sweeps through the entry and
// on the variant directly, interleaved in batches; the median difference.
double dispatchOverheadNs(SweepDispatch& sd, int width, Spans& spans) {
  const void* direct = nullptr;
  if (!sd.hasVariant(static_cast<uint64_t>(width), &direct)) return 0.0;
  constexpr int kBatch = 256;
  std::vector<double> diffs;
  for (int batch = 0; batch < 64; ++batch) {
    uint64_t viaEntry = 0, viaDirect = 0;
    {
      auto span = spans.span(SpanId::DispatchCall);
      for (int i = 0; i < kBatch; ++i) viaEntry += sd.sweep(width, 3);
    }
    {
      auto span = spans.span(SpanId::DirectCall);
      for (int i = 0; i < kBatch; ++i)
        viaDirect += sd.sweepDirect(direct, width, 3);
    }
    diffs.push_back((static_cast<double>(viaEntry) -
                     static_cast<double>(viaDirect)) / kBatch);
  }
  return median(diffs);
}

void reportDispatch(Outcome& out, const brew::DispatchStats& s, uint64_t calls,
                    double overheadNs, double adaptMs) {
  out.add("dispatch.overhead_ns_per_call", overheadNs, "ns");
  const double resolver = static_cast<double>(s.tableHits + s.misses);
  out.add("dispatch.stub_hit_share",
          calls == 0 ? 0.0 : 1.0 - resolver / static_cast<double>(calls),
          "share");
  out.add("dispatch.promotions", static_cast<double>(s.promotions), "count");
  out.add("dispatch.demotions", static_cast<double>(s.demotions), "count");
  out.add("dispatch.adapt_ms", adaptMs, "ms");
}

}  // namespace

void runWidthShift(const RunOptions& options, Outcome& out) {
  Spans spans(options.trace);
  std::vector<double> setupSeconds;
  std::unique_ptr<brew::SpecManager> manager;
  std::unique_ptr<SweepDispatch> sd;
  brew::Prng rng(options.seed);
  int hot[kHotWidths] = {};       // the hot widths
  int hotIndex[kHotWidths] = {};  // their indices in kWidths
  // Hot sets come in cycles of 4 phases that together make every width hot
  // once, in a seeded order: each seed's run weighs the widths alike.
  int order[kWidthCount];
  int cyclePos = 0;
  auto drawHotSet = [&] {
    if (cyclePos == 0) {
      for (int i = 0; i < kWidthCount; ++i) order[i] = i;
      for (int i = kWidthCount - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(static_cast<uint64_t>(i) + 1)]);
    }
    for (int i = 0; i < kHotWidths; ++i) {
      hotIndex[i] = order[cyclePos + i];
      hot[i] = kWidths[hotIndex[i]];
    }
    cyclePos = (cyclePos + kHotWidths) % kWidthCount;
  };
  // Set-up: the manager, the dispatcher, and the first hot set specialized.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sd.reset();
    manager.reset();
    rng = brew::Prng(options.seed);
    cyclePos = 0;
    bool ok = false;
    setupSeconds.push_back(coldSetupSeconds(
        [&] {
          manager = std::make_unique<brew::SpecManager>(managerOptions(options));
          sd = std::make_unique<SweepDispatch>(*manager, options.seed);
          drawHotSet();
          uint64_t keys[kHotWidths];
          for (int i = 0; i < kHotWidths; ++i)
            keys[i] = static_cast<uint64_t>(hot[i]);
          sd->dispatcher().seedHot(keys, 0);
          return sd->valid();
        },
        &ok));
    for (int w : hot) ok = ok && sd->hasVariant(static_cast<uint64_t>(w));
    out.attempt(ok);
    if (!ok) {
      out.mismatch("width_shift set-up did not specialize the hot widths");
      return;
    }
  }

  std::vector<double> adaptMs;
  uint64_t calls = 0;
  const uint64_t start = nowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(options.seconds * 1e9);
  // One class of operations per width; its reference is the oracle's
  // original sweep of that width, compute-bound like the dispatched one.
  OpLog ops(start, options.seconds, kWidthCount);
  uint64_t now = start;
  for (uint64_t phase = 0; now < deadline; ++phase) {
    if (phase > 0) drawHotSet();
    const uint64_t shiftNs = now;
    bool adapted = false;
    for (int i = 0; i < kSweepsPerPhase && now < deadline; ++i) {
      const int cls = rng.chance(kHotShare)
                          ? hotIndex[rng.below(kHotWidths)]
                          : static_cast<int>(rng.below(kWidthCount));
      const int width = kWidths[cls];
      const int rows = rowsFor(width);
      spans.beginRequest();
      uint64_t ns = 0;
      {
        auto span = spans.span(SpanId::DispatchCall);
        ns = sd->sweep(width, rows);
      }
      ++calls;
      bool ok = true;
      if (calls % kCheckEvery == 0 || !ops.hasRef(cls)) {
        uint64_t origNs = 0;
        ok = sd->check(width, rows, &origNs);
        if (!ok) out.mismatch("dispatched sweep differs from the original");
        ops.addRef(cls, origNs / 1e3);
      }
      now = nowNs();
      ops.add(cls, ns / 1e3, now);
      out.attempt(ok);
      if (phase > 0 && !adapted) {
        adapted = std::all_of(std::begin(hot), std::end(hot), [&](int w) {
          return sd->hasVariant(static_cast<uint64_t>(w));
        });
        if (adapted) adaptMs.push_back((nowNs() - shiftNs) / 1e6);
      }
    }
  }

  if (!options.trace) {
    // p97: about 4.5% of sweeps go to widths without a variant and run at
    // the original's speed, so p97 sits among them. Above p98 the figures
    // split by seed (1.16 or 1.45 times the original at p99), by which cold
    // widths took the resolver's slow path.
    reportEndToEnd(out, setupSeconds, ops, 0.97);
    return;
  }
  const brew::CacheStats loopStats = manager->cache().stats();
  const brew::DispatchStats dstats = sd->dispatcher().stats();
  reportTraced(out, ops);
  // The overhead is read on a width the stub serves from an inline way.
  int inlineWidth = hot[0];
  for (const brew::VariantInfo& v : sd->dispatcher().variants())
    if (v.inlineCached) inlineWidth = static_cast<int>(v.key);
  reportDispatch(out, dstats, calls,
                 dispatchOverheadNs(*sd, inlineWidth, spans), median(adaptMs));
  std::vector<ColdRequest> all, cached;
  for (int w : kWidths) {
    all.push_back(sd->requestFor(w));
    if (sd->hasVariant(static_cast<uint64_t>(w))) cached.push_back(all.back());
  }
  coldLedger(options, all, 2, spans, out);
  panelDecode({reinterpret_cast<const void*>(&brew_stencil_sweep),
               reinterpret_cast<const void*>(&brew_stencil_apply)},
              spans, out);
  panelHitPath(*manager, cached, loopStats, spans, out);
  panelKernel(options, spans, out);
  panelPersist(options, spans, out);
  if (!options.spansPath.empty()) spans.write(options.spansPath);
}

void panelDispatch(const RunOptions& options, Spans& spans, Outcome& out) {
  brew::SpecManager manager(managerOptions(options));
  SweepDispatch sd(manager, options.seed);
  // Adaptation from a cold dispatcher: one width until its variant is live.
  const int width = kWidths[options.seed % kWidthCount];
  const uint64_t t0 = nowNs();
  uint64_t calls = 0;
  while (!sd.hasVariant(static_cast<uint64_t>(width)) && calls < 4096) {
    sd.sweep(width, 3);
    ++calls;
  }
  const double adaptMs = (nowNs() - t0) / 1e6;
  const bool ok = sd.hasVariant(static_cast<uint64_t>(width)) &&
                  sd.check(width, 3);
  if (!ok) out.mismatch("dispatch panel did not specialize");
  out.attempt(ok);
  const double overhead = dispatchOverheadNs(sd, width, spans);
  calls += 64 * 256;  // entry calls; direct calls bypass the stub
  reportDispatch(out, sd.dispatcher().stats(), calls, overhead, adaptMs);
}

}  // namespace perfbench
