#include <gtest/gtest.h>

#include <cmath>

#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rootfind.hpp"
#include "util/error.hpp"

namespace dn = dramstress::numeric;

TEST(Matrix, MultiplyIdentity) {
  dn::Matrix a(3, 3);
  for (size_t i = 0; i < 3; ++i) a(i, i) = 1.0;
  const dn::Vector x{1.0, -2.0, 3.0};
  EXPECT_EQ(a.multiply(x), x);
}

TEST(Matrix, MultiplyGeneral) {
  dn::Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const dn::Vector y = a.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, VectorHelpers) {
  dn::Vector a{1.0, 2.0};
  const dn::Vector b{3.0, -4.0};
  EXPECT_DOUBLE_EQ(dn::dot(a, b), -5.0);
  EXPECT_DOUBLE_EQ(dn::norm_inf(b), 4.0);
  const dn::Vector d = dn::subtract(a, b);
  EXPECT_DOUBLE_EQ(d[0], -2.0);
  EXPECT_DOUBLE_EQ(d[1], 6.0);
  dn::axpy(a, 2.0, b);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], -6.0);
}

TEST(Lu, SolvesDiagonal) {
  dn::Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  const dn::Vector x = dn::lu_solve(a, {2.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SolvesWithPivoting) {
  // Leading zero forces a row swap.
  dn::Matrix a(3, 3);
  a(0, 0) = 0.0;
  a(0, 1) = 2.0;
  a(0, 2) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  a(1, 2) = 1.0;
  a(2, 0) = 2.0;
  a(2, 1) = 0.0;
  a(2, 2) = -1.0;
  const dn::Vector b{7.0, 6.0, 1.0};
  const dn::Vector x = dn::lu_solve(a, b);
  const dn::Vector r = a.multiply(x);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);
}

TEST(Lu, SingularThrows) {
  dn::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  dn::LuSolver s;
  EXPECT_THROW(s.factor(a), dramstress::ConvergenceError);
}

TEST(Lu, ReuseAcrossFactorizations) {
  dn::LuSolver s;
  dn::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  s.factor(a);
  EXPECT_NEAR(s.solve({3.0, 4.0})[0], 3.0, 1e-12);
  a(0, 0) = 2.0;
  s.factor(a);
  EXPECT_NEAR(s.solve({3.0, 4.0})[0], 1.5, 1e-12);
}

TEST(Lu, RandomizedResidualProperty) {
  // Deterministic pseudo-random matrices: A x = b must solve to ~1e-9.
  unsigned seed = 12345;
  auto next = [&seed]() {
    seed = seed * 1664525u + 1013904223u;
    return static_cast<double>(seed % 2000) / 1000.0 - 1.0;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + static_cast<size_t>(trial % 12);
    dn::Matrix a(n, n);
    dn::Vector b(n);
    for (size_t i = 0; i < n; ++i) {
      b[i] = next();
      for (size_t j = 0; j < n; ++j) a(i, j) = next();
      a(i, i) += 3.0;  // diagonally dominant => well conditioned
    }
    const dn::Vector x = dn::lu_solve(a, b);
    const dn::Vector r = dn::subtract(a.multiply(x), b);
    EXPECT_LT(dn::norm_inf(r), 1e-9) << "trial " << trial;
  }
}

TEST(Rootfind, BisectPredicateFindsThreshold) {
  const double t = dn::bisect_predicate([](double x) { return x < 0.37; }, 0.0,
                                        1.0, {.x_tol = 1e-9});
  EXPECT_NEAR(t, 0.37, 1e-8);
}

TEST(Rootfind, BisectPredicateNoFlipThrows) {
  EXPECT_THROW(
      dn::bisect_predicate([](double) { return true; }, 0.0, 1.0),
      dramstress::ConvergenceError);
}

TEST(Rootfind, BisectRootQuadratic) {
  const double r = dn::bisect_root([](double x) { return x * x - 2.0; }, 0.0,
                                   2.0, {.x_tol = 1e-10});
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(Rootfind, BisectLogSpansDecades) {
  // Flip at 185 kOhm somewhere inside [1k, 1G].
  const double r = dn::bisect_predicate_log(
      [](double x) { return x < 185e3; }, 1e3, 1e9, {.x_tol = 1e-6});
  EXPECT_NEAR(r, 185e3, 10.0);
}

TEST(Rootfind, BracketWidthShrinks) {
  const auto br = dn::bisect_predicate_bracket(
      [](double x) { return x < 0.5; }, 0.0, 1.0, {.x_tol = 1e-3});
  EXPECT_LE(br.width(), 1e-3);
  EXPECT_LE(br.lo, 0.5);
  EXPECT_GE(br.hi, 0.5);
}

TEST(Rootfind, KnownBracketSkipsOnlyTheEndpointProbes) {
  // A caller that already holds both endpoint verdicts gets the same
  // bracket for exactly two fewer predicate calls.
  long full_calls = 0;
  long known_calls = 0;
  const auto full = dn::bisect_predicate_bracket(
      [&](double x) { ++full_calls; return x < 0.37; }, 0.0, 1.0,
      {.x_tol = 1e-6});
  const auto known = dn::bisect_known_bracket(
      [&](double x) { ++known_calls; return x < 0.37; }, 0.0, 1.0,
      /*lo_verdict=*/true, {.x_tol = 1e-6});
  EXPECT_EQ(known.lo, full.lo);
  EXPECT_EQ(known.hi, full.hi);
  EXPECT_EQ(known_calls, full_calls - 2);
}

TEST(Rootfind, KnownLogMatchesPredicateLog) {
  // Falling predicate (true below the flip): lo_verdict = true; and the
  // rising mirror image with lo_verdict = false.
  const auto below = [](double x) { return x < 185e3; };
  const auto above = [](double x) { return x >= 185e3; };
  EXPECT_EQ(dn::bisect_known_log(below, 1e3, 1e9, true, {.x_tol = 1e-6}),
            dn::bisect_predicate_log(below, 1e3, 1e9, {.x_tol = 1e-6}));
  EXPECT_EQ(dn::bisect_known_log(above, 1e3, 1e9, false, {.x_tol = 1e-6}),
            dn::bisect_predicate_log(above, 1e3, 1e9, {.x_tol = 1e-6}));
}

TEST(Interp, EvaluatesAndExtrapolatesFlat) {
  dn::PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);  // flat extrapolation
  EXPECT_DOUBLE_EQ(f(5.0), 0.0);
}

TEST(Interp, RejectsNonIncreasingX) {
  EXPECT_THROW(dn::PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}),
               dramstress::ModelError);
}

TEST(Interp, FirstCrossingLinearCase) {
  dn::PiecewiseLinear a({0.0, 1.0}, {0.0, 1.0});   // y = x
  dn::PiecewiseLinear b({0.0, 1.0}, {0.6, 0.6});   // y = 0.6
  const auto x = dn::first_crossing(a, b, 0.0, 1.0);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 0.6, 1e-3);
}

TEST(Interp, FirstCrossingAbsent) {
  dn::PiecewiseLinear a({0.0, 1.0}, {0.0, 0.1});
  dn::PiecewiseLinear b({0.0, 1.0}, {0.6, 0.6});
  EXPECT_FALSE(dn::first_crossing(a, b, 0.0, 1.0).has_value());
}

TEST(Interp, GridHelpers) {
  const auto lin = dn::linspace(0.0, 1.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin[0], 0.0);
  EXPECT_DOUBLE_EQ(lin[2], 0.5);
  EXPECT_DOUBLE_EQ(lin[4], 1.0);
  const auto lg = dn::logspace(1e3, 1e6, 4);
  ASSERT_EQ(lg.size(), 4u);
  EXPECT_NEAR(lg[1], 1e4, 1e-6 * 1e4);
  EXPECT_NEAR(lg[3], 1e6, 1e-6 * 1e6);
}

TEST(Lu, FactorReusesStorageAcrossSameSizedCalls) {
  auto make = [](double scale) {
    dn::Matrix a(4, 4);
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = 0; j < 4; ++j) a(i, j) = scale * (1.0 + double(i * 4 + j));
      a(i, i) += 10.0 * scale;
    }
    return a;
  };
  dn::LuSolver lu;
  lu.factor(make(1.0));
  const double* storage = lu.lu_storage();
  const dn::Vector x1 = lu.solve({1.0, 2.0, 3.0, 4.0});
  // A same-sized refactorization must reuse the internal buffer (the
  // transient loop refactors every Newton iteration)...
  lu.factor(make(2.0));
  EXPECT_EQ(lu.lu_storage(), storage);
  // ...and still produce a correct factorization: A2 = 2 A1, so the
  // solution of A2 x = b is half the solution of A1 x = b.
  const dn::Vector x2 = lu.solve({1.0, 2.0, 3.0, 4.0});
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(x2[i], 0.5 * x1[i], 1e-12);
  // Growing the system reallocates and keeps solving correctly.
  dn::Matrix big(6, 6);
  for (size_t i = 0; i < 6; ++i) big(i, i) = 2.0;
  lu.factor(big);
  EXPECT_EQ(lu.size(), 6u);
  const dn::Vector xb = lu.solve({2.0, 2.0, 2.0, 2.0, 2.0, 2.0});
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(xb[i], 1.0, 1e-12);
}
