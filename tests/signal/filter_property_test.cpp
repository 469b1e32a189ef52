// Property sweep over the filtering kernels the parallel engine multiplies:
// fir / savitzky_golay / delay. For random inputs drawn from a
// fixed-seed common::Rng, each kernel must satisfy the algebra a linear
// filter owes its callers — linearity, unit DC gain (the preprocessing
// chain's absolute thresholds depend on it), and shift/time invariance away
// from the replicated edges.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "signal/fir.hpp"
#include "signal/delay.hpp"
#include "signal/savitzky_golay.hpp"
#include "signal/types.hpp"

namespace lumichat::signal {
namespace {

Signal random_signal(std::size_t n, common::Rng& rng, double lo = -50.0,
                     double hi = 150.0) {
  Signal x(n, 0.0);
  for (double& v : x) v = rng.uniform(lo, hi);
  return x;
}

// ---------------------------------------------------------------- FIR ----

struct FirParam {
  double cutoff_hz;
  double rate_hz;
  std::size_t taps;
};

class FirProperties : public ::testing::TestWithParam<FirParam> {};

TEST_P(FirProperties, UnitDcGainOnConstantInput) {
  const FirParam p = GetParam();
  const FirFilter f = design_lowpass(p.cutoff_hz, p.rate_hz, p.taps);
  const Signal c(64, 42.5);
  for (const double y : f.apply(c)) EXPECT_NEAR(y, 42.5, 1e-9);
  for (const double y : f.apply_zero_phase(c)) EXPECT_NEAR(y, 42.5, 1e-9);
}

TEST_P(FirProperties, Linearity) {
  const FirParam p = GetParam();
  const FirFilter f = design_lowpass(p.cutoff_hz, p.rate_hz, p.taps);
  common::Rng rng(2024);
  const Signal x = random_signal(120, rng);
  const Signal y = random_signal(120, rng);
  const double a = 2.5;
  const double b = -0.75;
  Signal combo(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) combo[i] = a * x[i] + b * y[i];

  const Signal fx = f.apply(x);
  const Signal fy = f.apply(y);
  const Signal fc = f.apply(combo);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fc[i], a * fx[i] + b * fy[i], 1e-9) << "i=" << i;
  }
}

TEST_P(FirProperties, ShiftInvarianceAwayFromEdges) {
  const FirParam p = GetParam();
  const FirFilter f = design_lowpass(p.cutoff_hz, p.rate_hz, p.taps);
  common::Rng rng(77);
  const std::size_t n = 240;
  const std::size_t shift = 9;
  const Signal x = random_signal(n, rng);
  Signal shifted(n, x[0]);
  for (std::size_t i = shift; i < n; ++i) shifted[i] = x[i - shift];

  const Signal fx = f.apply(x);
  const Signal fs = f.apply(shifted);
  // Compare in the interior: replication padding pollutes one filter
  // support at each boundary of either signal.
  const std::size_t margin = p.taps + shift;
  for (std::size_t i = margin; i + margin < n; ++i) {
    EXPECT_NEAR(fs[i], fx[i - shift], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingEnvelope, FirProperties,
    ::testing::Values(FirParam{1.0, 10.0, 21},   // the paper's filter
                      FirParam{1.0, 10.0, 11},   //
                      FirParam{0.8, 8.0, 21},    //
                      FirParam{1.5, 12.0, 31}));

// ------------------------------------------------------ Savitzky-Golay ----

struct SavgolParam {
  std::size_t window;
  std::size_t order;
};

class SavgolProperties : public ::testing::TestWithParam<SavgolParam> {};

TEST_P(SavgolProperties, KernelHasUnitDcGain) {
  const SavgolParam p = GetParam();
  const Signal k = savgol_coefficients(p.window, p.order);
  double sum = 0.0;
  for (const double c : k) sum += c;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(SavgolProperties, ReproducesPolynomialsUpToItsOrderInTheInterior) {
  const SavgolParam p = GetParam();
  const std::size_t n = 120;
  // A full-order polynomial over t in [0, 1]: the least-squares fit is
  // exact, so smoothing must return the sample unchanged (away from the
  // replicated edges).
  Signal x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    double v = 0.0;
    double tp = 1.0;
    for (std::size_t d = 0; d <= p.order; ++d) {
      v += (static_cast<double>(d) + 1.0) * tp;  // 1 + 2t + 3t^2 + ...
      tp *= t;
    }
    x[i] = v;
  }
  const Signal y = savgol_filter(x, p.window, p.order);
  const std::size_t margin = p.window / 2;
  for (std::size_t i = margin; i + margin < n; ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-8) << "i=" << i;
  }
}

TEST_P(SavgolProperties, Linearity) {
  const SavgolParam p = GetParam();
  common::Rng rng(4242);
  const Signal x = random_signal(90, rng);
  const Signal y = random_signal(90, rng);
  const double a = 0.5;
  const double b = -2.0;
  Signal combo(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) combo[i] = a * x[i] + b * y[i];

  const Signal fx = savgol_filter(x, p.window, p.order);
  const Signal fy = savgol_filter(y, p.window, p.order);
  const Signal fc = savgol_filter(combo, p.window, p.order);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fc[i], a * fx[i] + b * fy[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WindowsAndOrders, SavgolProperties,
                         ::testing::Values(SavgolParam{31, 3},  // the paper's
                                           SavgolParam{11, 2},  //
                                           SavgolParam{15, 4}));

// ---------------------------- Delay: resampling onto a shifted grid ----

TEST(ResampleProperties, IntegerDelayShiftsExactly) {
  common::Rng rng(12);
  const Signal x = random_signal(60, rng);
  const Signal d = delay_signal(x, 5.0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], x[0]);  // replicated
  for (std::size_t i = 5; i < x.size(); ++i) {
    EXPECT_NEAR(d[i], x[i - 5], 1e-12) << "i=" << i;
  }
}

TEST(ResampleProperties, DelayThenUndelayRestoresTheInterior) {
  common::Rng rng(13);
  const Signal x = random_signal(60, rng);
  const Signal back = delay_signal(delay_signal(x, 4.0), -4.0);
  for (std::size_t i = 4; i + 4 < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-12) << "i=" << i;
  }
}

}  // namespace
}  // namespace lumichat::signal
