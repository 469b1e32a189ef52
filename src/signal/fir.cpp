#include "signal/fir.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace lumichat::signal {
namespace {

// "Same"-size convolution with edge-replicated padding. Replication (rather
// than zero padding) avoids fake luminance edges at clip boundaries, which
// would otherwise be picked up by the peak finder as significant changes.
// The per-sample loop lives in the runtime-dispatched SIMD layer
// (simd::Kernels::convolve_same) with the accumulation order unchanged.
Signal convolve_same(const Signal& x, const Signal& taps) {
  if (x.empty()) return {};
  Signal y(x.size(), 0.0);
  simd::active().convolve_same(x.data(), x.size(), taps.data(), taps.size(),
                               y.data());
  return y;
}

// A "same"-size FIR with an even tap count has no centre tap: half = m/2 is
// off-centre, so the output is silently shifted by half a sample against
// the input. Features aligned between the transmitted and received signals
// cannot tolerate that, so even-length taps are rejected rather than
// half-sample-shifted. design_lowpass always produces odd taps; this guards
// hand-built FirFilter aggregates.
void check_taps(const Signal& taps) {
  if (taps.empty()) {
    throw std::invalid_argument("FirFilter: need at least one tap");
  }
  if (taps.size() % 2 == 0) {
    throw std::invalid_argument(
        "FirFilter: even-length taps would shift the output by half a "
        "sample; use an odd tap count");
  }
}

}  // namespace

Signal FirFilter::apply(const Signal& x) const {
  check_taps(taps);
  return convolve_same(x, taps);
}

Signal FirFilter::apply_zero_phase(const Signal& x) const {
  check_taps(taps);
  Signal forward = convolve_same(x, taps);
  std::reverse(forward.begin(), forward.end());
  Signal backward = convolve_same(forward, taps);
  std::reverse(backward.begin(), backward.end());
  return backward;
}

FirFilter design_lowpass(double cutoff_hz, double sample_rate_hz,
                         std::size_t num_taps) {
  // Negated comparisons, so NaN fails them too.
  if (!(std::isfinite(sample_rate_hz) && sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "design_lowpass: sample rate must be finite and positive");
  }
  if (!(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0)) {
    throw std::invalid_argument(
        "design_lowpass: cutoff must lie in (0, sample_rate/2)");
  }
  if (num_taps < 3) {
    throw std::invalid_argument("design_lowpass: need at least 3 taps");
  }
  if (num_taps % 2 == 0) ++num_taps;  // keep symmetric with integer delay

  const double fc = cutoff_hz / sample_rate_hz;  // normalised cut-off
  const auto m = static_cast<std::ptrdiff_t>(num_taps);
  const std::ptrdiff_t mid = m / 2;

  Signal taps(num_taps, 0.0);
  double sum = 0.0;
  for (std::ptrdiff_t i = 0; i < m; ++i) {
    const double k = static_cast<double>(i - mid);
    const double sinc =
        (i == mid) ? 2.0 * fc
                   : std::sin(2.0 * std::numbers::pi * fc * k) /
                         (std::numbers::pi * k);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               static_cast<double>(m - 1));
    taps[static_cast<std::size_t>(i)] = sinc * hamming;
    sum += taps[static_cast<std::size_t>(i)];
  }
  // Normalise for unit DC gain: a constant luminance must pass unchanged so
  // that absolute thresholds downstream (variance cut-off of 2) stay valid.
  for (double& t : taps) t /= sum;
  return FirFilter{std::move(taps)};
}

}  // namespace lumichat::signal
