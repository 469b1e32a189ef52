// Pins the scalar kernel table against independent reference
// implementations. Per-output kernels must be BIT-identical to the legacy
// per-sample loops they replaced (that is what kept the golden Fig. 11
// metrics from churning); reductions use a documented widen-then-reduce
// order, so they are checked against a naive sequential sum to a tight
// relative tolerance and against a handwritten widened reducer exactly.
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "model/snapshot.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace lumichat::simd {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> ramp_signal(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           0.25 * static_cast<double>(i % 7);
  }
  return x;
}

// The pre-SIMD FirFilter convolution loop, verbatim semantics.
double legacy_convolve_at(const std::vector<double>& x,
                          const std::vector<double>& taps, std::size_t i) {
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto m = static_cast<std::ptrdiff_t>(taps.size());
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + half - k;
    j = std::max<std::ptrdiff_t>(0, std::min(j, n - 1));
    acc += taps[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(j)];
  }
  return acc;
}

// The pre-SIMD resample.cpp clamped linear interpolation, verbatim.
double legacy_sample_at(const std::vector<double>& x, double t) {
  const double max_t = static_cast<double>(x.size() - 1);
  t = std::max(0.0, std::min(t, max_t));
  const auto i0 = static_cast<std::size_t>(std::floor(t));
  const std::size_t i1 = std::min(i0 + 1, x.size() - 1);
  const double frac = t - static_cast<double>(i0);
  return x[i0] * (1.0 - frac) + x[i1] * frac;
}

TEST(KernelReference, ConvolveMatchesLegacyLoopBitwise) {
  const Kernels& k = scalar_kernels();
  const std::vector<double> x = ramp_signal(97);
  const std::vector<double> taps = {0.1, -0.3, 0.6, 0.4, 0.2};
  std::vector<double> y(x.size(), 0.0);
  k.convolve_same(x.data(), x.size(), taps.data(), taps.size(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits(y[i]), bits(legacy_convolve_at(x, taps, i))) << "i=" << i;
  }
}

TEST(KernelReference, DelayMatchesLegacySampleAtBitwise) {
  const Kernels& k = scalar_kernels();
  const std::vector<double> x = ramp_signal(61);
  for (const double delay : {0.0, 0.4, -1.3, 2.75, 100.0}) {
    std::vector<double> y(x.size(), 0.0);
    k.delay_linear(x.data(), x.size(), delay, y.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(y[i]),
                bits(legacy_sample_at(x, static_cast<double>(i) - delay)))
          << "delay=" << delay << " i=" << i;
    }
  }
}

TEST(KernelReference, SquaredDistPlusSqrtMatchesEuclideanBitwise) {
  const Kernels& k = scalar_kernels();
  const std::size_t n = 37;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  std::vector<double> zs(n);
  std::vector<double> ws(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    xs[i] = std::sin(0.3 * t);
    ys[i] = std::cos(0.7 * t);
    zs[i] = 0.1 * t;
    ws[i] = std::sin(1.1 * t + 0.5);
  }
  const double q[4] = {0.2, -0.4, 1.7, 0.05};
  std::vector<double> d2(n, 0.0);
  k.squared_dist4_batch(xs.data(), ys.data(), zs.data(), ws.data(), n, q, d2.data());
  for (std::size_t i = 0; i < n; ++i) {
    const model::Point4 a = {q[0], q[1], q[2], q[3]};
    const model::Point4 b = {xs[i], ys[i], zs[i], ws[i]};
    ASSERT_EQ(bits(std::sqrt(d2[i])), bits(model::euclidean(a, b)))
        << "i=" << i;
  }
}

TEST(KernelReference, SumMatchesWidenedReferenceBitwiseAndNaiveNearly) {
  const Kernels& k = scalar_kernels();
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 1001u}) {
    const std::vector<double> x = ramp_signal(n);
    // Handwritten canonical widen-4 reduction from the kernels.hpp contract.
    double lanes[detail::kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t body = n - n % detail::kReduceLanes;
    for (std::size_t i = 0; i < body; ++i) lanes[i % 4] += x[i];
    double widened = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (std::size_t i = body; i < n; ++i) widened += x[i];
    const double got = k.sum(x.data(), n);
    EXPECT_EQ(bits(got), bits(widened)) << "n=" << n;
    double naive = 0.0;
    for (const double v : x) naive += v;
    EXPECT_NEAR(got, naive, 1e-12 * std::max(1.0, std::fabs(naive)))
        << "n=" << n;
  }
}

TEST(KernelReference, LuminanceRowSumNearNaive) {
  const Kernels& k = scalar_kernels();
  const std::size_t npix = 103;
  std::vector<double> rgb(npix * 3);
  for (std::size_t i = 0; i < rgb.size(); ++i) {
    rgb[i] = 0.5 + 0.5 * std::sin(0.13 * static_cast<double>(i));
  }
  const double kr = 0.2126;
  const double kg = 0.7152;
  const double kb = 0.0722;
  double naive = 0.0;
  for (std::size_t i = 0; i < npix; ++i) {
    naive += (rgb[3 * i] * kr + rgb[3 * i + 1] * kg) + rgb[3 * i + 2] * kb;
  }
  EXPECT_NEAR(k.luminance_row_sum(rgb.data(), npix, kr, kg, kb), naive,
              1e-12 * naive);
}

}  // namespace
}  // namespace lumichat::simd
