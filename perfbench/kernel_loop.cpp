// kernel_loop: the paper's §V workload. The 5-point stencil on a 500x500
// matrix and the PGAS element accessors are specialized once; every timed
// round then runs the specialized, original and manual kernels through the
// same indirect-call drivers, in an order that rotates from round to round.
// The generated code does almost all the work; the rewrite pipeline, cache,
// dispatch and persistence sit idle after set-up.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "pgas/pgas.h"
#include "pgas/runtime.hpp"
#include "stencil/stencil.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using brew::ArgValue;

constexpr int kSide = 500;
constexpr long kPgasElems = 1L << 14;  // cache-resident local segment
constexpr size_t kCells = static_cast<size_t>(kSide - 2) * (kSide - 2);

enum Kind { kSpec = 0, kOrig = 1, kManual = 2 };

// The manual kernel takes (m, xs); the sweep driver passes a third argument
// that the x86-64 SysV calling convention lets it ignore, so all three
// kernels run through the one driver, brew_stencil_sweep.
brew_stencil_fn manualAsGeneric() {
  return reinterpret_cast<brew_stencil_fn>(
      reinterpret_cast<void*>(&brew_stencil_apply_manual5));
}

class KernelRig {
 public:
  KernelRig(brew::SpecManager& manager, uint64_t seed)
      : stencil_(brew::stencil::fivePoint()),
        src_(kSide, kSide),
        runtime_(brew::pgas::Runtime::Options{
            .ranks = 4, .myRank = 0, .elementsPerRank = kPgasElems}),
        rng_(seed ^ 0x6b65726e656cULL) {
    src_.fillDeterministic(seed);
    for (auto& m : dst_) m = std::make_unique<brew::stencil::Matrix>(kSide, kSide);
    view_ = runtime_.view(0);
    for (int rank = 1; rank < runtime_.ranks(); ++rank)
      for (long i = 0; i < kPgasElems; ++i)
        runtime_.segment(rank)[i] = static_cast<double>(rank) + 1.0 / (1 + i);

    ColdRequest sweep{stencilConfig(sizeof stencil_), {},
                      reinterpret_cast<const void*>(&brew_stencil_apply),
                      {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kSide),
                       ArgValue::fromPtr(&stencil_)}};
    ColdRequest read{pgasReadConfig(), {},
                     reinterpret_cast<const void*>(&brew_pgas_read),
                     {ArgValue::fromPtr(&view_), ArgValue::fromInt(0)}};
    ColdRequest write{pgasWriteConfig(), {},
                      reinterpret_cast<const void*>(&brew_pgas_write),
                      {ArgValue::fromPtr(&view_), ArgValue::fromInt(0),
                       ArgValue::fromDouble(0.0)}};
    requests = {sweep, read, write};
    void* entries[3] = {};
    for (size_t i = 0; i < requests.size(); ++i) {
      const ColdRequest& r = requests[i];
      auto handle = manager.rewrite(r.config, r.passes, r.fn, r.args);
      if (!handle.ok()) {
        std::fprintf(stderr, "perfbench: kernel_loop rewrite %zu failed: %s\n",
                     i, handle.error().message().c_str());
        return;
      }
      entries[i] = handle->entry();
      handles_.push_back(std::move(*handle));
    }
    specApply_ = reinterpret_cast<brew_stencil_fn>(entries[0]);
    specRead_ = reinterpret_cast<brew_pgas_read_fn>(entries[1]);
    specWrite_ = reinterpret_cast<brew_pgas_write_fn>(entries[2]);
    ready_ = true;
  }

  bool ready() const { return ready_; }

  // Times (us) of the specialized kernels of a round, and of the reference
  // doing the same work in it: the manual stencil kernel and the original
  // PGAS accessors.
  struct Times {
    double spec = 0, ref = 0;
  };

  // One round.
  Times round(uint64_t index, Spans& spans, Outcome& out) {
    bool ok = true;
    // Stencil: rotate spec / orig / manual so drift hits all three alike.
    uint64_t sweepNs[3] = {};
    for (int slot = 0; slot < 3; ++slot) {
      const int kind = static_cast<int>((index + slot) % 3);
      const brew_stencil_fn fn = kind == kSpec   ? specApply_
                                 : kind == kOrig ? &brew_stencil_apply
                                                 : manualAsGeneric();
      const SpanId id = kind == kSpec   ? SpanId::KernelSpec
                        : kind == kOrig ? SpanId::KernelOrig
                                        : SpanId::KernelManual;
      const uint64_t t0 = nowNs();
      {
        auto span = spans.span(id);
        brew_stencil_sweep(dst_[kind]->data(), src_.data(), kSide, kSide, fn,
                           &stencil_);
      }
      sweepNs[kind] = nowNs() - t0;
    }
    // Oracle: the original function, bit-exact; the manual kernel sums in
    // another order, so it gets a rounding tolerance.
    const size_t bytes = sizeof(double) * kSide * kSide;
    if (std::memcmp(dst_[kSpec]->data(), dst_[kOrig]->data(), bytes) != 0) {
      out.mismatch("specialized stencil sweep differs from the original");
      ok = false;
    }
    if (brew::stencil::Matrix::maxAbsDiff(*dst_[kManual], *dst_[kOrig]) >
        1e-12) {
      out.mismatch("manual stencil sweep differs from the original");
      ok = false;
    }

    // PGAS: fill then sum the local segment, specialized and original
    // accessors alternating which goes first.
    const double value = 1.0 + static_cast<double>(rng_.below(1024)) / 1024.0;
    uint64_t pgasNs[2] = {};
    double sums[2] = {};
    for (int slot = 0; slot < 2; ++slot) {
      const int kind = static_cast<int>((index + slot) % 2);
      const auto write = kind == kSpec ? specWrite_ : &brew_pgas_write;
      const auto read = kind == kSpec ? specRead_ : &brew_pgas_read;
      const uint64_t t0 = nowNs();
      {
        auto span = spans.span(kind == kSpec ? SpanId::KernelSpec
                                             : SpanId::KernelOrig);
        brew_pgas_fill_range(&view_, 0, kPgasElems, value, write);
        sums[kind] = brew_pgas_sum_range(&view_, 0, kPgasElems, read);
      }
      pgasNs[kind] = nowNs() - t0;
      if (view_.local_base[0] != value ||
          view_.local_base[kPgasElems - 1] != value) {
        out.mismatch("PGAS fill did not store the value");
        ok = false;
      }
    }
    if (sums[kSpec] != sums[kOrig]) {
      out.mismatch("specialized PGAS sum differs from the original");
      ok = false;
    }
    // Remote paths: checked, not timed.
    if (index % 64 == 0) ok = checkRemote(index, out) && ok;
    out.attempt(ok);

    for (int k = 0; k < 3; ++k)
      sweeps[k].push_back(static_cast<double>(sweepNs[k]));
    for (int k = 0; k < 2; ++k) pgas[k].push_back(static_cast<double>(pgasNs[k]));
    stencilRatio.push_back(static_cast<double>(sweepNs[kOrig]) /
                           static_cast<double>(std::max<uint64_t>(sweepNs[kSpec], 1)));
    pgasRatio.push_back(static_cast<double>(pgasNs[kOrig]) /
                        static_cast<double>(std::max<uint64_t>(pgasNs[kSpec], 1)));
    return {static_cast<double>(sweepNs[kSpec] + pgasNs[kSpec]) / 1e3,
            static_cast<double>(sweepNs[kManual] + pgasNs[kOrig]) / 1e3};
  }

  // kernel.* metrics from the rounds run so far.
  void report(Outcome& out) const {
    out.add("kernel.spec_ns_per_cell", median(sweeps[kSpec]) / kCells, "ns");
    out.add("kernel.orig_ns_per_cell", median(sweeps[kOrig]) / kCells, "ns");
    out.add("kernel.manual_ns_per_cell", median(sweeps[kManual]) / kCells,
            "ns");
    // Fill and sum each touch every element once.
    const double elems = 2.0 * kPgasElems;
    out.add("kernel.pgas_spec_ns_per_elem", median(pgas[kSpec]) / elems, "ns");
    out.add("kernel.pgas_orig_ns_per_elem", median(pgas[kOrig]) / elems, "ns");
    out.add("kernel.spec_vs_orig_min",
            std::min(median(stencilRatio), median(pgasRatio)), "ratio");
  }

  std::vector<ColdRequest> requests;  // the cold rewrites of set-up
  std::vector<double> sweeps[3];      // ns per sweep: spec, orig, manual
  std::vector<double> pgas[2];        // ns per fill+sum: spec, orig
  std::vector<double> stencilRatio;   // per round: orig / spec
  std::vector<double> pgasRatio;

 private:
  bool checkRemote(uint64_t index, Outcome& out) {
    const long remote = view_.length - 1 - static_cast<long>(index % 97);
    bool ok = specRead_(&view_, remote) == brew_pgas_read(&view_, remote);
    const double stored = 3.0 + static_cast<double>(index % 5);
    specWrite_(&view_, remote, stored);
    ok = ok && brew_pgas_read(&view_, remote) == stored;
    if (!ok) out.mismatch("specialized PGAS remote path differs");
    return ok;
  }

  brew_stencil stencil_;
  brew::stencil::Matrix src_;
  std::unique_ptr<brew::stencil::Matrix> dst_[3];
  brew::pgas::Runtime runtime_;
  brew_pgas_view view_{};
  brew::Prng rng_;
  std::vector<brew::CodeHandle> handles_;
  brew_stencil_fn specApply_ = nullptr;
  brew_pgas_read_fn specRead_ = nullptr;
  brew_pgas_write_fn specWrite_ = nullptr;
  bool ready_ = false;
};

}  // namespace

void runKernelLoop(const RunOptions& options, Outcome& out) {
  Spans spans(options.trace);
  std::vector<double> setupSeconds;
  std::unique_ptr<brew::SpecManager> manager;
  std::unique_ptr<KernelRig> rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rig.reset();
    manager.reset();
    bool ok = false;
    setupSeconds.push_back(coldSetupSeconds(
        [&] {
          manager = std::make_unique<brew::SpecManager>(managerOptions(options));
          rig = std::make_unique<KernelRig>(*manager, options.seed);
          return rig->ready();
        },
        &ok));
    out.attempt(ok);
    if (!ok) return;
  }

  const uint64_t start = nowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(options.seconds * 1e9);
  // One class of operations; its reference is the manual and original
  // kernels of each round, compute-bound like the specialized ones.
  OpLog ops(start, options.seconds, 1);
  uint64_t index = 0;
  for (uint64_t now = start; now < deadline; ++index) {
    spans.beginRequest();
    const KernelRig::Times t = rig->round(index, spans, out);
    now = nowNs();
    ops.addRef(0, t.ref);
    ops.add(0, t.spec, now);
  }

  if (!options.trace) {
    // A window holds about 160 rounds: p90 is the highest percentile with
    // ten of them beyond it.
    reportEndToEnd(out, setupSeconds, ops, 0.90);
    return;
  }
  const brew::CacheStats loopStats = manager->cache().stats();
  reportTraced(out, ops);
  rig->report(out);
  coldLedger(options, rig->requests, 8, spans, out);
  panelDecode({reinterpret_cast<const void*>(&brew_stencil_apply),
               reinterpret_cast<const void*>(&brew_pgas_read),
               reinterpret_cast<const void*>(&brew_pgas_write)},
              spans, out);
  panelHitPath(*manager, rig->requests, loopStats, spans, out);
  panelDispatch(options, spans, out);
  panelPersist(options, spans, out);
  if (!options.spansPath.empty()) spans.write(options.spansPath);
}

void panelKernel(const RunOptions& options, Spans& spans, Outcome& out) {
  brew::SpecManager manager(managerOptions(options));
  KernelRig rig(manager, options.seed);
  if (!rig.ready()) {
    out.mismatch("kernel panel set-up failed");
    return;
  }
  for (uint64_t index = 0; index < 12; ++index) rig.round(index, spans, out);
  rig.report(out);
}

}  // namespace perfbench
