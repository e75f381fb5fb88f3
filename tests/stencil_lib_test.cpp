// Stencil substrate unit tests: specs, grouping, matrices, sweep drivers.
#include <gtest/gtest.h>

#include <cmath>

#include "stencil/stencil.hpp"
#include "support/prng.hpp"

namespace brew::stencil {
namespace {

TEST(StencilSpec, FivePointShape) {
  const brew_stencil s = fivePoint();
  ASSERT_EQ(s.ps, 5);
  double coeffSum = 0;
  for (int i = 0; i < s.ps; ++i) coeffSum += s.p[i].f;
  EXPECT_DOUBLE_EQ(coeffSum, 0.0);  // conservative stencil
  EXPECT_EQ(s.p[0].dx, 0);
  EXPECT_EQ(s.p[0].dy, 0);
  EXPECT_DOUBLE_EQ(s.p[0].f, -1.0);
}

TEST(StencilSpec, NinePointShape) {
  const brew_stencil s = ninePoint();
  ASSERT_EQ(s.ps, 9);
  double coeffSum = 0;
  for (int i = 0; i < s.ps; ++i) coeffSum += s.p[i].f;
  EXPECT_DOUBLE_EQ(coeffSum, 0.0);
}

TEST(Grouping, ByCoefficient) {
  const brew_gstencil g = groupByCoefficient(fivePoint());
  ASSERT_EQ(g.ng, 2);
  int points = 0;
  for (int gi = 0; gi < g.ng; ++gi) points += g.g[gi].np;
  EXPECT_EQ(points, 5);
  // The group carrying 4 points has the 0.25 coefficient.
  for (int gi = 0; gi < g.ng; ++gi) {
    if (g.g[gi].np == 4) {
      EXPECT_DOUBLE_EQ(g.g[gi].f, 0.25);
    }
    if (g.g[gi].np == 1) {
      EXPECT_DOUBLE_EQ(g.g[gi].f, -1.0);
    }
  }
}

TEST(Grouping, RandomStencilsPreserveSemantics) {
  Prng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const brew_stencil s = randomStencil(rng, 1 + rng.below(16), 2);
    const brew_gstencil g = groupByCoefficient(s);
    int points = 0;
    for (int gi = 0; gi < g.ng; ++gi) points += g.g[gi].np;
    ASSERT_EQ(points, s.ps);

    Matrix m(32, 32);
    m.fillDeterministic(trial);
    for (int y = 3; y < 29; ++y)
      for (int x = 3; x < 29; ++x) {
        const double* cell = m.data() + y * 32 + x;
        ASSERT_NEAR(brew_stencil_apply(cell, 32, &s),
                    brew_stencil_apply_grouped(cell, 32, &g), 1e-12);
      }
  }
}

TEST(MatrixTest, Accessors) {
  Matrix m(8, 4);
  EXPECT_EQ(m.xs(), 8);
  EXPECT_EQ(m.ys(), 4);
  m.at(3, 2) = 5.5;
  EXPECT_DOUBLE_EQ(m.data()[2 * 8 + 3], 5.5);
}

TEST(MatrixTest, FillIsDeterministic) {
  Matrix a(16, 16), b(16, 16);
  a.fillDeterministic(9);
  b.fillDeterministic(9);
  EXPECT_EQ(Matrix::maxAbsDiff(a, b), 0.0);
  b.fillDeterministic(10);
  EXPECT_GT(Matrix::maxAbsDiff(a, b), 0.0);
}

TEST(Sweep, BordersUntouched) {
  const brew_stencil s = fivePoint();
  Matrix src(16, 12), dst(16, 12);
  src.fillDeterministic();
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 16; ++x) dst.at(x, y) = -99.0;
  brew_stencil_sweep(dst.data(), src.data(), 16, 12, &brew_stencil_apply,
                     &s);
  for (int x = 0; x < 16; ++x) {
    EXPECT_EQ(dst.at(x, 0), -99.0);
    EXPECT_EQ(dst.at(x, 11), -99.0);
  }
  for (int y = 0; y < 12; ++y) {
    EXPECT_EQ(dst.at(0, y), -99.0);
    EXPECT_EQ(dst.at(15, y), -99.0);
  }
  // Interior written.
  EXPECT_NE(dst.at(5, 5), -99.0);
}

TEST(Sweep, PingPongParity) {
  const brew_stencil s = fivePoint();
  Matrix a(16, 16), b(16, 16);
  a.fillDeterministic();
  // After an odd number of iterations the result lives in b's storage.
  const Matrix& result = runIterations(a, b, 3, &brew_stencil_apply, s);
  EXPECT_EQ(&result, &b);
  Matrix a2(16, 16), b2(16, 16);
  a2.fillDeterministic();
  const Matrix& result2 = runIterations(a2, b2, 4, &brew_stencil_apply, s);
  EXPECT_EQ(&result2, &a2);
}

TEST(Sweep, ManualVariantsAgree) {
  Matrix a(32, 24), b1(32, 24), b2(32, 24);
  a.fillDeterministic(5);
  brew_stencil_sweep_manual_ptr(b1.data(), a.data(), 32, 24,
                                &brew_stencil_apply_manual5);
  brew_stencil_sweep_manual_fused(b2.data(), a.data(), 32, 24);
  // Same kernel expression: bit-exact.
  for (int y = 1; y < 23; ++y)
    for (int x = 1; x < 31; ++x)
      ASSERT_EQ(b1.at(x, y), b2.at(x, y)) << x << "," << y;
}

TEST(Sweep, Checksum) {
  Matrix m(8, 8);
  m.fillDeterministic(1);
  const double c1 = m.interiorChecksum();
  m.at(3, 3) += 1.0;
  EXPECT_NE(m.interiorChecksum(), c1);
  m.at(0, 0) += 1.0;  // border: not part of the checksum
  const double c2 = m.interiorChecksum();
  m.at(0, 0) -= 1.0;
  EXPECT_EQ(m.interiorChecksum(), c2);
}

}  // namespace
}  // namespace brew::stencil
