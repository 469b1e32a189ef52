#include "signal/dtw.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace lumichat::signal {
namespace {

TEST(Dtw, IdenticalSignalsHaveZeroDistance) {
  const std::vector<double> x{1, 3, 2, 5, 4};
  EXPECT_DOUBLE_EQ(dtw_distance(x, x), 0.0);
}

TEST(Dtw, EmptyInputs) {
  const std::vector<double> x{1, 2};
  EXPECT_DOUBLE_EQ(dtw_distance({}, {}), 0.0);
  EXPECT_TRUE(std::isinf(dtw_distance(x, {})));
  EXPECT_TRUE(std::isinf(dtw_distance({}, x)));
}

TEST(Dtw, SymmetricInArguments) {
  const std::vector<double> x{0, 1, 2, 3, 2, 1};
  const std::vector<double> y{0, 0, 2, 3, 1};
  EXPECT_DOUBLE_EQ(dtw_distance(x, y), dtw_distance(y, x));
}

TEST(Dtw, TimeShiftCostsLessThanPointwise) {
  // A shifted copy of a pulse: DTW should align it nearly for free while
  // the pointwise (Euclidean-style) cost is large.
  std::vector<double> x(40, 0.0);
  std::vector<double> y(40, 0.0);
  for (int i = 10; i < 15; ++i) x[static_cast<std::size_t>(i)] = 5.0;
  for (int i = 14; i < 19; ++i) y[static_cast<std::size_t>(i)] = 5.0;
  double pointwise = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) pointwise += std::fabs(x[i] - y[i]);
  EXPECT_LT(dtw_distance(x, y), 0.3 * pointwise);
}

TEST(Dtw, KnownSmallExample) {
  const std::vector<double> x{0, 1, 2};
  const std::vector<double> y{0, 2};
  // Alignment (0-0)(1-2)(2-2): cost 0 + 1 + 0 = 1.
  EXPECT_DOUBLE_EQ(dtw_distance(x, y), 1.0);
}

TEST(Dtw, ConstantOffsetScalesWithLength) {
  const std::vector<double> x(10, 1.0);
  const std::vector<double> y(10, 3.0);
  // Every alignment step costs 2; the cheapest path has max(n,m)=10 steps.
  EXPECT_DOUBLE_EQ(dtw_distance(x, y), 20.0);
}

TEST(Dtw, UnequalLengthsSupported) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5};
  const std::vector<double> y{0, 2, 4};
  const double d = dtw_distance(x, y);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GE(d, 0.0);
}

// Metric-like properties on random signals: non-negativity, identity,
// symmetry (DTW violates the triangle inequality, which we do not test).
class DtwProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DtwProperty, Invariants) {
  unsigned state = GetParam();
  auto next = [&state]() {
    state = state * 1103515245u + 12345u;
    return static_cast<double>(state % 100) / 10.0;
  };
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) x.push_back(next());
  for (int i = 0; i < 43; ++i) y.push_back(next());

  const double dxy = dtw_distance(x, y);
  EXPECT_GE(dxy, 0.0);
  EXPECT_DOUBLE_EQ(dtw_distance(x, x), 0.0);
  EXPECT_DOUBLE_EQ(dxy, dtw_distance(y, x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwProperty,
                         ::testing::Values(3u, 17u, 255u, 9001u));

}  // namespace
}  // namespace lumichat::signal
