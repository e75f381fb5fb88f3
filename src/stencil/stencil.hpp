// C++ conveniences around the pre-compiled stencil kernels: stencil
// builders, matrices, ping-pong iteration drivers and verification.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stencil/stencil.h"
#include "support/prng.hpp"

namespace brew::stencil {

// The paper's 5-point stencil: average of the 4 neighbours minus the
// center value.
brew_stencil fivePoint();
brew_gstencil fivePointGrouped();

// 9-point box stencil (the tests' second shape).
brew_stencil ninePoint();

// Random stencil with `points` points within [-range, range]^2 offsets
// (center excluded from neighbours to keep offsets valid near edges only
// if |dx|,|dy| <= 1; callers pick range accordingly).
brew_stencil randomStencil(Prng& rng, int points, int range);

// Groups a flat stencil by coefficient (§V-B restructuring).
brew_gstencil groupByCoefficient(const brew_stencil& s);

class Matrix {
 public:
  Matrix(int xs, int ys);

  double* data() { return values_.data(); }
  const double* data() const { return values_.data(); }
  int xs() const { return xs_; }
  int ys() const { return ys_; }

  double& at(int x, int y) { return values_[static_cast<size_t>(y) * xs_ + x]; }
  double at(int x, int y) const {
    return values_[static_cast<size_t>(y) * xs_ + x];
  }

  void fillDeterministic(uint64_t seed = 42);

  // Max |a-b| over all cells.
  static double maxAbsDiff(const Matrix& a, const Matrix& b);
  // Checksum over interior cells (cheap equality proxy for benches).
  double interiorChecksum() const;

 private:
  int xs_, ys_;
  std::vector<double> values_;
};

// Runs `iterations` ping-pong sweeps with the given cell function; returns
// a reference to the matrix holding the final result.
const Matrix& runIterations(Matrix& a, Matrix& b, int iterations,
                            brew_stencil_fn fn, const brew_stencil& s);
const Matrix& runIterationsGrouped(Matrix& a, Matrix& b, int iterations,
                                   brew_gstencil_fn fn,
                                   const brew_gstencil& s);
const Matrix& runIterationsManualPtr(Matrix& a, Matrix& b, int iterations,
                                     brew_manual_fn fn);
const Matrix& runIterationsManualFused(Matrix& a, Matrix& b, int iterations);

}  // namespace brew::stencil
