// Savitzky-Golay smoothing (Sec. V): the paper applies a Savitzky-Golay
// filter with a window of 31 samples to the RMS-smoothed variance signal so
// neighbouring sub-peaks of a single luminance change merge into one peak
// without washing out its location.
//
// Coefficients are derived the classical way: fit a degree-`poly_order`
// polynomial to each window by linear least squares; the smoothed value is
// the fitted polynomial evaluated at the window centre. Because the design
// matrix depends only on window geometry, the fit reduces to a fixed
// convolution kernel. Deriving it takes one small linear solve per window
// sample, so a caller that smooths many signals with one configuration
// holds a SavgolSmoother, which derives it once.
#pragma once

#include <cstddef>

#include "signal/types.hpp"

namespace lumichat::signal {

/// Computes the central Savitzky-Golay convolution kernel.
///
/// \param window     odd window length (even values are rejected).
/// \param poly_order polynomial degree, must be < window.
/// \throws std::invalid_argument on bad parameters.
[[nodiscard]] Signal savgol_coefficients(std::size_t window,
                                         std::size_t poly_order);

/// Savitzky-Golay smoothing with edge-replicated boundaries, its kernel
/// derived once, at construction.
class SavgolSmoother {
 public:
  /// \throws std::invalid_argument when poly_order is not below the
  ///         window (an even window counts as the next odd one).
  SavgolSmoother(std::size_t window, std::size_t poly_order);

  /// If the signal is shorter than the window, the window is shrunk to the
  /// largest odd length that fits (minimum poly_order + 1 | odd), mirroring
  /// scipy's practical behaviour for short clips; that kernel is derived on
  /// each call.
  [[nodiscard]] Signal apply(const Signal& x) const;

 private:
  std::size_t poly_order_;
  Signal kernel_;  ///< of the nominal (odd) window
};

/// One-off smoothing: SavgolSmoother(window, poly_order).apply(x).
[[nodiscard]] Signal savgol_filter(const Signal& x, std::size_t window,
                                   std::size_t poly_order = 3);

}  // namespace lumichat::signal
