#include "signal/savitzky_golay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/linalg.hpp"
#include "simd/dispatch.hpp"

namespace lumichat::signal {

Signal savgol_coefficients(std::size_t window, std::size_t poly_order) {
  if (window % 2 == 0 || window == 0) {
    throw std::invalid_argument("savgol: window must be odd");
  }
  if (poly_order >= window) {
    throw std::invalid_argument("savgol: poly_order must be < window");
  }
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(window) / 2;
  const std::size_t terms = poly_order + 1;

  // Vandermonde design matrix over window offsets -half..half.
  Matrix a(window, terms);
  for (std::size_t r = 0; r < window; ++r) {
    const double t = static_cast<double>(static_cast<std::ptrdiff_t>(r) - half);
    double p = 1.0;
    for (std::size_t c = 0; c < terms; ++c) {
      a(r, c) = p;
      p *= t;
    }
  }

  // The kernel weight for window sample r is the centre value of the
  // polynomial fitted to the unit impulse at r; equivalently, row 0 of
  // (A^T A)^{-1} A^T. We recover it by solving one system per sample.
  const Matrix g = gram(a);
  Signal kernel(window, 0.0);
  for (std::size_t r = 0; r < window; ++r) {
    std::vector<double> e(window, 0.0);
    e[r] = 1.0;
    const std::vector<double> rhs = mat_t_vec(a, e);
    const std::vector<double> beta = solve(g, rhs);
    kernel[r] = beta[0];  // polynomial evaluated at t = 0
  }
  return kernel;
}

namespace {

// The odd window a smoother of nominal window `window` uses on an n-sample
// signal: `window`
// (an even one bumped to odd) when it fits, else the largest odd length
// that fits, kept overdetermined for the fit; 0 when the signal is too
// short to smooth meaningfully.
std::size_t window_for(std::size_t n, std::size_t window,
                       std::size_t poly_order) {
  std::size_t w = window;
  if (w % 2 == 0) ++w;
  const std::size_t min_w =
      (poly_order + 2) % 2 == 0 ? poly_order + 3 : poly_order + 2;
  if (w > n) {
    w = (n % 2 == 0) ? n - 1 : n;
    w = std::max(w, min_w);
    if (w > n) return 0;
  }
  return w;
}

// Clamped correlation with the fitted kernel; the per-sample loop lives in
// the runtime-dispatched SIMD layer with the accumulation order (ascending
// kernel index) unchanged.
Signal correlate(const Signal& x, const Signal& kernel) {
  Signal y(x.size(), 0.0);
  simd::active().correlate_same(x.data(), x.size(), kernel.data(),
                                kernel.size(), y.data());
  return y;
}

}  // namespace

SavgolSmoother::SavgolSmoother(std::size_t window, std::size_t poly_order)
    : poly_order_(poly_order),
      kernel_(savgol_coefficients(window % 2 == 0 ? window + 1 : window,
                                  poly_order)) {}

Signal SavgolSmoother::apply(const Signal& x) const {
  if (x.empty()) return {};
  const std::size_t w = window_for(x.size(), kernel_.size(), poly_order_);
  if (w == 0) return x;
  if (w == kernel_.size()) return correlate(x, kernel_);
  return correlate(x, savgol_coefficients(w, poly_order_));
}

Signal savgol_filter(const Signal& x, std::size_t window,
                     std::size_t poly_order) {
  return SavgolSmoother(window, poly_order).apply(x);
}

}  // namespace lumichat::signal
