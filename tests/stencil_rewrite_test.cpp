// Integration: rewrite the REAL gcc-compiled generic stencil kernels (the
// paper's §V-A experiment) and verify numerical equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/rewriter.hpp"
#include "stencil/stencil.hpp"
#include "support/prng.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

using stencil::Matrix;

constexpr int kXs = 64, kYs = 48;

Config specializingConfig(const void* stencilPtr, size_t stencilSize) {
  (void)stencilPtr;
  Config config;
  config.setParamKnown(1);                    // xs (paper Fig. 5, param 2)
  config.setParamKnownPtr(2, stencilSize);    // stencil (param 3, PTR_TOKNOWN)
  return config;
}

TEST(StencilRewrite, SpecializedMatchesGenericFivePoint) {
  const brew_stencil s = stencil::fivePoint();
  Config config = specializingConfig(&s, sizeof s);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kXs, &s);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto app2 = rewritten->as<brew_stencil_fn>();

  Matrix m(kXs, kYs);
  m.fillDeterministic();
  for (int y = 1; y < kYs - 1; ++y) {
    for (int x = 1; x < kXs - 1; ++x) {
      const double* cell = m.data() + y * kXs + x;
      EXPECT_DOUBLE_EQ(app2(cell, kXs, &s),
                       brew_stencil_apply(cell, kXs, &s))
          << "at (" << x << ", " << y << ")";
    }
  }
  // Specialization must fold the stencil loop away: no captured branches,
  // and substantially fewer instructions than the generic path executes.
  EXPECT_EQ(rewritten->traceStats().capturedBranches, 0u);
  EXPECT_GE(rewritten->traceStats().elidedInstructions, 10u);
}

TEST(StencilRewrite, SpecializedSweepIsDropIn) {
  const brew_stencil s = stencil::fivePoint();
  Config config = specializingConfig(&s, sizeof s);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kXs, &s);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();

  Matrix a1(kXs, kYs), b1(kXs, kYs), a2(kXs, kYs), b2(kXs, kYs);
  a1.fillDeterministic();
  a2.fillDeterministic();
  const Matrix& ref =
      stencil::runIterations(a1, b1, 10, &brew_stencil_apply, s);
  const Matrix& got =
      stencil::runIterations(a2, b2, 10, rewritten->as<brew_stencil_fn>(), s);
  EXPECT_EQ(Matrix::maxAbsDiff(ref, got), 0.0);
}

TEST(StencilRewrite, ManualFivePointAgrees) {
  // The hand-written kernel computes the same stencil.
  const brew_stencil s = stencil::fivePoint();
  Matrix m(kXs, kYs);
  m.fillDeterministic(7);
  for (int y = 1; y < kYs - 1; ++y) {
    for (int x = 1; x < kXs - 1; ++x) {
      const double* cell = m.data() + y * kXs + x;
      EXPECT_NEAR(brew_stencil_apply_manual5(cell, kXs),
                  brew_stencil_apply(cell, kXs, &s), 1e-12);
    }
  }
}

TEST(StencilRewrite, GroupedGenericAgreesAndSpecializes) {
  const brew_stencil s = stencil::fivePoint();
  const brew_gstencil g = stencil::groupByCoefficient(s);
  ASSERT_EQ(g.ng, 2);  // -1.0 and 0.25

  Matrix m(kXs, kYs);
  m.fillDeterministic(9);
  for (int y = 1; y < kYs - 1; ++y)
    for (int x = 1; x < kXs - 1; ++x) {
      const double* cell = m.data() + y * kXs + x;
      EXPECT_NEAR(brew_stencil_apply_grouped(cell, kXs, &g),
                  brew_stencil_apply(cell, kXs, &s), 1e-12);
    }

  Config config;
  config.setParamKnown(1);
  config.setParamKnownPtr(2, sizeof g);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply_grouped), nullptr,
      kXs, &g);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto app2 = rewritten->as<brew_gstencil_fn>();
  for (int y = 1; y < kYs - 1; ++y)
    for (int x = 1; x < kXs - 1; ++x) {
      const double* cell = m.data() + y * kXs + x;
      EXPECT_DOUBLE_EQ(app2(cell, kXs, &g),
                       brew_stencil_apply_grouped(cell, kXs, &g));
    }
}

class RandomStencilRewrite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStencilRewrite, SpecializedMatchesGeneric) {
  Prng rng(GetParam());
  const int points = 1 + static_cast<int>(rng.below(12));
  const brew_stencil s = stencil::randomStencil(rng, points, 2);

  Config config;
  config.setParamKnown(1);
  config.setParamKnownPtr(2, sizeof s);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kXs, &s);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto app2 = rewritten->as<brew_stencil_fn>();

  Matrix m(kXs, kYs);
  m.fillDeterministic(GetParam());
  for (int y = 2; y < kYs - 2; ++y)
    for (int x = 2; x < kXs - 2; ++x) {
      const double* cell = m.data() + y * kXs + x;
      ASSERT_DOUBLE_EQ(app2(cell, kXs, &s),
                       brew_stencil_apply(cell, kXs, &s))
          << "seed " << GetParam() << " at (" << x << ", " << y << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStencilRewrite,
                         ::testing::Range<uint64_t>(1, 17));

TEST(StencilRewrite, UnknownStencilStillWorks) {
  // Only xs known: the stencil loop cannot unroll (branch on unknown
  // count), code must keep the loop and still compute correctly.
  const brew_stencil s = stencil::ninePoint();
  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(
      reinterpret_cast<const void*>(&brew_stencil_apply), nullptr, kXs, &s);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto app2 = rewritten->as<brew_stencil_fn>();
  Matrix m(kXs, kYs);
  m.fillDeterministic(3);
  for (int y = 2; y < kYs - 2; ++y)
    for (int x = 2; x < kXs - 2; ++x) {
      const double* cell = m.data() + y * kXs + x;
      ASSERT_DOUBLE_EQ(app2(cell, kXs, &s), brew_stencil_apply(cell, kXs, &s));
    }
  EXPECT_GE(rewritten->traceStats().capturedBranches, 1u);
}

// --- the whole sweep, two cells per trip --------------------------------------
//
// The loop vectorizer (src/core/passes/loop_vectorize.cpp) packs two cells
// of a kept cell loop into the lanes of SSE2 packed-double instructions,
// each lane with its own cell's unchanged operation order. Every stored
// bit must match.

uint64_t loopsVectorized() {
  return telemetry::counter(telemetry::CounterId::PassLoopsVectorized).value();
}

// Finite values, signed zeros, infinities, quiet and signalling NaNs and
// denormals, one special value in eight.
std::vector<double> specialInputs(size_t n, uint64_t seed) {
  static constexpr uint64_t kSpecial[] = {
      0x0000000000000000, 0x8000000000000000,  // +0, -0
      0x7ff0000000000000, 0xfff0000000000000,  // +inf, -inf
      0x7ff8000000000001, 0xfff8000000000000,  // quiet NaNs
      0x7ff0000000000001, 0xfff4000000000000,  // signalling NaNs
      0x0000000000000001, 0x800fffffffffffff,  // denormals
  };
  Prng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    const uint64_t pick = rng.next();
    x = pick % 8 == 0
            ? std::bit_cast<double>(kSpecial[(pick >> 8) % std::size(kSpecial)])
            : (rng.uniform() - 0.5) * 16.0;
  }
  return v;
}

// The whole-sweep subject is the variant width_shift dispatches:
// brew_stencil_sweep with the width, the cell function and the stencil
// known, and the sweep's loops kept, so its cell loop runs over an unknown
// number of rows.
using sweep_fn = void (*)(double*, const double*, int, int, brew_stencil_fn,
                          const brew_stencil*);

const brew_stencil kSweepStencil = stencil::fivePoint();

RewrittenFunction rewriteSweep(int width, Config config, bool crossIter) {
  const void* subject = reinterpret_cast<const void*>(&brew_stencil_sweep);
  config.setParamKnown(2);
  config.setParamKnown(4);
  config.setParamKnownPtr(5, sizeof kSweepStencil);
  config.setReturnKind(ReturnKind::Void);
  config.setFunctionOptions(
      subject,
      FunctionOptions{.inlineCalls = true, .forceUnknownResults = true});
  Rewriter rewriter{config};
  rewriter.passes().crossIterLoads = crossIter;
  auto f = rewriter.rewrite(
      subject, nullptr, nullptr, width, 0,
      reinterpret_cast<const void*>(&brew_stencil_apply), &kSweepStencil);
  EXPECT_TRUE(f.ok()) << width << ": " << f.error().message();
  return f.ok() ? std::move(*f) : RewrittenFunction{};
}

// Runs `want` and `got` over copies of one buffer that holds src and,
// `shift` doubles from it, dst; compares every byte of the buffer.
void expectSweepsAgree(sweep_fn want, sweep_fn got, int width, int rows,
                       ptrdiff_t shift, const std::string& what) {
  constexpr ptrdiff_t kMargin = 96;  // more than any negative shift
  const ptrdiff_t cells = width * rows;
  const std::vector<double> init =
      specialInputs(static_cast<size_t>(2 * kMargin + cells +
                                        std::max<ptrdiff_t>(shift, 0)),
                    static_cast<uint64_t>(width * 8 + rows));
  std::vector<double> a = init, b = init;
  want(a.data() + kMargin + shift, a.data() + kMargin, width, rows,
       &brew_stencil_apply, &kSweepStencil);
  got(b.data() + kMargin + shift, b.data() + kMargin, width, rows,
      &brew_stencil_apply, &kSweepStencil);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": width " << width << ", rows " << rows << ", dst = src + "
      << shift;
}

constexpr ptrdiff_t kSeparate = 48;  // doubles between src's end and dst

TEST(LoopVectorize, WholeSweepMatchesOriginalBitForBit) {
  // Without the zero-accumulator fold the rewrite must match the original
  // sweep bit for bit, odd and even trip counts, one- and two-cell rows.
  Config config;
  config.setFoldZeroAccumulator(false);
  const auto original = &brew_stencil_sweep;
  const uint64_t before = loopsVectorized();
  for (int width = 3; width <= 67; ++width) {
    const RewrittenFunction f = rewriteSweep(width, config, true);
    ASSERT_TRUE(f);
    for (int rows = 3; rows <= 6; ++rows)
      expectSweepsAgree(original, f.as<sweep_fn>(), width, rows,
                        width * rows + kSeparate, "original vs packed");
  }
  // Both cell loops, the first row's and the other rows', pack at every
  // width.
  EXPECT_EQ(loopsVectorized() - before, 2u * (67u - 3u + 1u));
}

TEST(LoopVectorize, WholeSweepMatchesUnpackedRewrite) {
  // The default Config folds the zero accumulator, which differs from the
  // original on -0.0 whether or not the loop is packed: compare with the
  // same rewrite without the cross-iteration passes.
  for (int width = 3; width <= 67; ++width) {
    const RewrittenFunction packed = rewriteSweep(width, Config{}, true);
    const RewrittenFunction scalar = rewriteSweep(width, Config{}, false);
    ASSERT_TRUE(packed && scalar);
    for (int rows = 3; rows <= 6; ++rows)
      expectSweepsAgree(scalar.as<sweep_fn>(), packed.as<sweep_fn>(), width,
                        rows, width * rows + kSeparate, "scalar vs packed");
  }
}

TEST(LoopVectorize, AliasedSweepMatchesOriginal) {
  // dst overlapping src: where a store could reach a neighbouring cell's
  // loads the guard keeps the scalar loop, and the result stays the
  // original's either way.
  Config config;
  config.setFoldZeroAccumulator(false);
  const auto original = &brew_stencil_sweep;
  for (int width = 3; width <= 67; ++width) {
    const RewrittenFunction f = rewriteSweep(width, config, true);
    ASSERT_TRUE(f);
    for (int rows = 3; rows <= 6; ++rows)
      for (ptrdiff_t k = -80; k <= 80; ++k)
        expectSweepsAgree(original, f.as<sweep_fn>(), width, rows, k,
                          "aliased");
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace brew
