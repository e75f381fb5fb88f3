// §VI: Chapel-style domain maps with transparent re-specialization.
//
// A DomainMap describes how a 1-D index domain is distributed over ranks
// (contiguous blocks with adjustable boundaries). The distribution is
// constant between redistribution points, so a runtime system can
// specialize accessors for it and regenerate them whenever the map
// changes — transparently to user code, which only ever calls accessor().
#pragma once

#include <optional>
#include <vector>

#include "core/rewriter.hpp"
#include "pgas/pgas.h"
#include "pgas/runtime.hpp"

namespace brew::pgas {

class DomainMap {
 public:
  // Initially blocks of equal size (the Runtime's native distribution).
  explicit DomainMap(Runtime& runtime);

  long length() const { return length_; }
  // Owned half-open range of `rank`.
  long blockStart(int rank) const {
    return starts_[static_cast<size_t>(rank)];
  }
  long blockEnd(int rank) const {
    return starts_[static_cast<size_t>(rank) + 1];
  }

  // Moves block boundaries (load balancing). `newStarts` must be
  // monotonically non-decreasing, with newStarts[0] == 0. Data is migrated
  // between segments; any specialized accessor becomes stale and is
  // regenerated on next use.
  void redistribute(const std::vector<long>& newStarts);

  // The view of `rank` under the current map.
  brew_pgas_view view(int rank) const;

  // Checked accessor for this rank, specialized for the current
  // distribution with BREW when possible; falls back to the generic
  // pre-compiled accessor when rewriting fails. The returned pointer stays
  // valid until the next redistribute().
  brew_pgas_read_fn accessor(int rank);

  // Number of times a specialized accessor was (re)generated.
  int respecializations() const { return respecializations_; }
  bool lastSpecializationSucceeded() const { return lastOk_; }

 private:
  Runtime& runtime_;
  long length_;
  std::vector<long> starts_;  // ranks()+1 entries, starts_[0] == 0
  // One cached specialized accessor per rank (regenerated lazily).
  struct CachedAccessor {
    std::optional<RewrittenFunction> rewritten;
    brew_pgas_view view{};
    bool valid = false;
  };
  std::vector<CachedAccessor> cache_;
  int respecializations_ = 0;
  bool lastOk_ = false;
};

}  // namespace brew::pgas
