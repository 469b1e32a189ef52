// Windowed-sinc FIR low-pass filter design and zero-phase filtering.
//
// The paper removes broadband camera/content noise from the raw luminance
// signals with a low-pass filter whose cut-off is 1 Hz (Sec. V, Fig. 6). We
// implement a standard Hamming-windowed sinc design plus forward-backward
// (zero-phase) application so that the location of luminance edges is not
// shifted in time — edge timestamps are the z1/z2 features' raw material.
#pragma once

#include <cstddef>

#include "signal/types.hpp"

namespace lumichat::signal {

/// FIR filter taps produced by `design_lowpass`.
struct FirFilter {
  Signal taps;

  /// Convolve `x` with the taps, compensating for group delay so the output
  /// is aligned with the input ("same" convolution with edge replication).
  [[nodiscard]] Signal apply(const Signal& x) const;

  /// Forward-backward application: zero phase, squared magnitude response.
  [[nodiscard]] Signal apply_zero_phase(const Signal& x) const;
};

/// Designs a Hamming-windowed sinc low-pass filter.
///
/// \param cutoff_hz   -3 dB-ish cut-off frequency in Hz (must be > 0 and
///                    < sample_rate_hz / 2).
/// \param sample_rate_hz sample rate of the signals it will be applied to
///                    (finite and > 0).
/// \param num_taps    filter length; odd values keep the filter symmetric
///                    around an integer group delay (even values are bumped
///                    to the next odd number).
/// \throws std::invalid_argument on out-of-range parameters.
[[nodiscard]] FirFilter design_lowpass(double cutoff_hz, double sample_rate_hz,
                                       std::size_t num_taps = 21);

}  // namespace lumichat::signal
