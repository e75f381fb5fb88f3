#include "pgas/domain_map.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/spec_manager.hpp"

namespace brew::pgas {

DomainMap::DomainMap(Runtime& runtime)
    : runtime_(runtime), length_(runtime.globalLength()) {
  const long perRank = length_ / runtime.ranks();
  starts_.resize(static_cast<size_t>(runtime.ranks()) + 1);
  for (int r = 0; r <= runtime.ranks(); ++r) starts_[static_cast<size_t>(r)] =
      perRank * r;
  cache_.resize(static_cast<size_t>(runtime.ranks()));
}

void DomainMap::redistribute(const std::vector<long>& newStarts) {
  if (newStarts.size() != starts_.size() || newStarts.front() != 0 ||
      newStarts.back() != length_ ||
      !std::is_sorted(newStarts.begin(), newStarts.end()))
    throw std::invalid_argument("bad domain map boundaries");

  // Migrate data: gather the global array under the old map, scatter under
  // the new one. (A real runtime would move only the deltas; the simulated
  // substrate keeps it simple and correct.)
  std::vector<double> global(static_cast<size_t>(length_));
  for (int r = 0; r < runtime_.ranks(); ++r) {
    const long lo = blockStart(r), hi = blockEnd(r);
    if (hi > lo)
      std::memcpy(&global[static_cast<size_t>(lo)], runtime_.segment(r),
                  static_cast<size_t>(hi - lo) * sizeof(double));
  }
  starts_ = newStarts;
  for (int r = 0; r < runtime_.ranks(); ++r) {
    const long lo = blockStart(r), hi = blockEnd(r);
    if (hi > lo)
      std::memcpy(runtime_.segment(r), &global[static_cast<size_t>(lo)],
                  static_cast<size_t>(hi - lo) * sizeof(double));
  }
  for (CachedAccessor& cached : cache_) cached.valid = false;
}

brew_pgas_view DomainMap::view(int rank) const {
  brew_pgas_view v;
  v.local_base = runtime_.segment(rank);
  v.local_start = blockStart(rank);
  v.local_end = blockEnd(rank);
  v.length = length_;
  v.rt = runtime_.handle();
  return v;
}

brew_pgas_read_fn DomainMap::accessor(int rank) {
  CachedAccessor& cached = cache_[static_cast<size_t>(rank)];
  if (cached.valid) {
    if (cached.rewritten.has_value())
      return cached.rewritten->as<brew_pgas_read_fn>();
    return &brew_pgas_read;
  }

  cached.view = view(rank);
  Config config;
  // The view struct is constant until the next redistribution; the index
  // stays a runtime value.
  config.setParamKnownPtr(0, sizeof(brew_pgas_view));
  config.setReturnKind(ReturnKind::Float);
  config.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_read),
      FunctionOptions{.inlineCalls = false, .forceUnknownResults = false,
                      .pure = true});
  // The cache key hashes the pointed-to view *contents*, so after a
  // redistribution the changed bounds form a new key and this misses
  // (correctly), while an unchanged rank's accessor is a hit.
  Rewriter rewriter{config, SpecManager::process()};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_pgas_read), &cached.view, 0L);
  ++respecializations_;
  cached.valid = true;
  if (rewritten.ok()) {
    lastOk_ = true;
    cached.rewritten.emplace(std::move(*rewritten));
    return cached.rewritten->as<brew_pgas_read_fn>();
  }
  // Graceful fallback (the paper's key robustness property).
  lastOk_ = false;
  cached.rewritten.reset();
  return &brew_pgas_read;
}

}  // namespace brew::pgas
