// Preprocessing chain (Sec. V, Fig. 7), applied to each raw luminance
// signal in this order:
//   1. low-pass FIR, cut-off 1 Hz          -> remove broadband noise
//   2. moving variance, window 10          -> localise energy of changes
//   3. threshold filter, cut-off 2         -> kill small noise spikes
//   4. moving RMS, window 30               -> merge split peaks
//   5. Savitzky-Golay, window 31, order 3  -> polynomial smoothing
//   6. moving average, window 10           -> final smoothing
//   7. peak finding by minimal prominence  -> significant luminance changes
// The smoothed variance signal (after 6) is the "luminance change trend"
// used by features z3/z4; the peak times (after 7) are the "luminance change
// behavior" used by z1/z2.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "signal/fir.hpp"
#include "signal/peaks.hpp"
#include "signal/savitzky_golay.hpp"
#include "signal/types.hpp"

namespace lumichat::core {

/// All intermediate products of the chain (Fig. 7 plots exactly these).
struct PreprocessResult {
  signal::Signal filtered;           ///< after the 1 Hz low-pass
  signal::Signal variance;           ///< short-time variance
  signal::Signal thresholded;        ///< after the spike cut-off
  signal::Signal smoothed_variance;  ///< after RMS + SavGol + moving average
  std::vector<signal::Peak> peaks;   ///< significant luminance changes
  std::vector<double> change_times_s;  ///< peak times in seconds
  /// Raw samples that were NaN/Inf on entry (sanitised before filtering).
  std::size_t non_finite_samples = 0;
};

/// How much evidence one preprocessed window actually carries. Computed per
/// signal and per window so the detector can *measure* degradation (packet
/// loss, exposure collapse, a user who never injected changes) and abstain
/// instead of emitting a confident verdict on garbage.
struct SignalQuality {
  /// Significant luminance changes found in the window.
  std::size_t change_events = 0;
  /// Peak-to-floor ratio of the smoothed-variance trend — a cheap SNR
  /// proxy: ~1 for a flat (dead) signal, large when real changes stand
  /// clear of the noise floor.
  double snr_proxy = 0.0;
  /// Fraction of the window's samples backed by real data (vs hold-last
  /// fallback / missing frames). The caller supplies it; batch extraction
  /// derives it from failed-landmark counts, streaming from delivered
  /// frames.
  double window_completeness = 1.0;
  /// False when the raw signal contained NaN/Inf samples.
  bool all_finite = true;
};

/// Assesses one preprocessed signal. `completeness` is the caller-known
/// fraction of real samples (1.0 when every sample was genuinely observed).
[[nodiscard]] SignalQuality assess_signal_quality(const PreprocessResult& pre,
                                                  double completeness);

/// The abstain rule: true when a round's evidence fails the configured
/// floors (cfg.enable_abstain is NOT consulted here — callers gate on it).
[[nodiscard]] bool quality_insufficient(const SignalQuality& transmitted,
                                        const SignalQuality& received,
                                        const DetectorConfig& cfg);

class Preprocessor {
 public:
  /// Designs the chain's two fixed filters (the low-pass taps and the
  /// Savitzky-Golay kernel) from `config`, once for every later process().
  /// \throws std::invalid_argument when either design is invalid (e.g. a
  ///         low-pass cut-off at or above Nyquist), so a broken
  ///         configuration fails here rather than at its first window.
  explicit Preprocessor(DetectorConfig config = {});

  /// Runs the full chain. `min_prominence` differs per signal: the paper
  /// uses 10 for the screen-light signal and 0.5 for the face-reflected
  /// signal (their dynamic ranges differ by an order of magnitude).
  [[nodiscard]] PreprocessResult process(const signal::Signal& raw,
                                         double min_prominence) const;

  /// The chain applied to the transmitted (screen-light) signal.
  [[nodiscard]] PreprocessResult process_transmitted(
      const signal::Signal& raw) const;

  /// The chain applied to the received (face-reflected) signal.
  [[nodiscard]] PreprocessResult process_received(
      const signal::Signal& raw) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
  signal::FirFilter lowpass_;
  signal::SavgolSmoother savgol_;
};

}  // namespace lumichat::core
