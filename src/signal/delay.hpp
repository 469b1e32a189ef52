// Fractional signal delay by linear interpolation: feature extraction
// removes the received signal's estimated delay with it (Sec. VI-2), i.e.
// network delay plus any forgery processing delay. Linear interpolation is
// sufficient because everything of interest lives below 1 Hz.
#pragma once

#include <cstddef>

#include "signal/types.hpp"

namespace lumichat::signal {

/// Shifts a signal in time by `delay_samples` (can be fractional; linear
/// interpolation; edges replicate). Positive delay moves content later.
/// Models both network delay and the adaptive attacker's processing delay.
[[nodiscard]] Signal delay_signal(const Signal& x, double delay_samples);

/// delay_signal plus the [valid_begin, valid_end) index range of `samples`
/// backed by real data. Outside it the clamped interpolation only replicates
/// the boundary sample — a constant run that is pure artefact. Correlating
/// over it manufactures agreement between any two signals (two constants
/// correlate perfectly), so consumers comparing delay-compensated signals
/// must restrict themselves to the valid range.
struct DelayedSignal {
  Signal samples;
  std::size_t valid_begin = 0;  ///< first index backed by real data
  std::size_t valid_end = 0;    ///< one past the last such index
};

[[nodiscard]] DelayedSignal delay_signal_checked(const Signal& x,
                                                 double delay_samples);

}  // namespace lumichat::signal
