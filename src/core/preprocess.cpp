#include "core/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "signal/threshold.hpp"
#include "signal/windows.hpp"

namespace lumichat::core {

namespace {

// Replaces NaN/Inf samples with the previous finite sample (0 when none has
// been seen yet) — the same hold-last policy the extractor uses for missing
// frames. One bad sample must not poison the whole FIR convolution.
signal::Signal sanitize_non_finite(const signal::Signal& raw,
                                   std::size_t* bad_count) {
  *bad_count = 0;
  for (const double v : raw) {
    if (!std::isfinite(v)) ++*bad_count;
  }
  if (*bad_count == 0) return raw;
  signal::Signal out = raw;
  double last = 0.0;
  for (double& v : out) {
    if (std::isfinite(v)) {
      last = v;
    } else {
      v = last;
    }
  }
  return out;
}

}  // namespace

SignalQuality assess_signal_quality(const PreprocessResult& pre,
                                    double completeness) {
  SignalQuality q;
  q.change_events = pre.peaks.size();
  q.window_completeness = std::clamp(completeness, 0.0, 1.0);
  q.all_finite = pre.non_finite_samples == 0;
  if (!pre.smoothed_variance.empty()) {
    double peak = 0.0;
    double sum = 0.0;
    for (const double v : pre.smoothed_variance) {
      peak = std::max(peak, v);
      sum += v;
    }
    const double mean = sum / static_cast<double>(pre.smoothed_variance.size());
    // +1 in both numerator and denominator keeps the ratio at 1 for a dead
    // (all-zero) trend instead of 0/0, and bounds its sensitivity near zero.
    q.snr_proxy = (peak + 1.0) / (mean + 1.0);
  }
  return q;
}

bool quality_insufficient(const SignalQuality& transmitted,
                          const SignalQuality& received,
                          const DetectorConfig& cfg) {
  // No probe injected: nothing to correlate, decide nothing.
  if (transmitted.change_events < cfg.abstain_min_changes) return true;
  // Received side starved of real data (loss/black frames) or too noisy.
  if (received.window_completeness < cfg.abstain_min_completeness) return true;
  if (received.snr_proxy < cfg.abstain_min_snr &&
      received.change_events == 0) {
    return true;
  }
  return false;
}

Preprocessor::Preprocessor(DetectorConfig config)
    : config_(config),
      lowpass_(signal::design_lowpass(config.lowpass_cutoff_hz,
                                      config.sample_rate_hz,
                                      config.lowpass_taps)),
      savgol_(config.savgol_window, config.savgol_order) {}

PreprocessResult Preprocessor::process(const signal::Signal& raw,
                                       double min_prominence) const {
  PreprocessResult r;
  if (raw.empty()) return r;

  {
    const signal::Signal clean =
        sanitize_non_finite(raw, &r.non_finite_samples);

    r.filtered = lowpass_.apply_zero_phase(clean);

    r.variance = signal::moving_variance(r.filtered, config_.variance_window);
    r.thresholded =
        signal::threshold_filter(r.variance, config_.variance_threshold);

    signal::Signal s = signal::moving_rms(r.thresholded, config_.rms_window);
    s = savgol_.apply(s);
    r.smoothed_variance =
        signal::moving_average_centered(s, config_.moving_avg_window);
  }

  signal::PeakOptions opts;
  opts.min_prominence = min_prominence;
  opts.min_distance = static_cast<std::size_t>(
      std::lround(config_.peak_min_distance_s * config_.sample_rate_hz));
  r.peaks = signal::find_peaks(r.smoothed_variance, opts);

  // The causal variance/RMS windows centre a change's energy roughly half a
  // window after the change itself; report peak times directly — both
  // signals pass through the same chain, so the shared lag cancels in the
  // transmitted-vs-received comparison.
  r.change_times_s.reserve(r.peaks.size());
  for (const signal::Peak& p : r.peaks) {
    r.change_times_s.push_back(static_cast<double>(p.index) /
                               config_.sample_rate_hz);
  }
  return r;
}

PreprocessResult Preprocessor::process_transmitted(
    const signal::Signal& raw) const {
  return process(raw, config_.screen_min_prominence);
}

PreprocessResult Preprocessor::process_received(
    const signal::Signal& raw) const {
  return process(raw, config_.face_min_prominence);
}

}  // namespace lumichat::core
