#include "core/preprocess.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "signal/fir.hpp"
#include "signal/savitzky_golay.hpp"
#include "signal/threshold.hpp"
#include "signal/windows.hpp"

namespace lumichat::core {
namespace {

// Builds a synthetic luminance signal at 10 Hz with steps at the given
// times, plus Gaussian noise.
signal::Signal steps_at(const std::vector<double>& times_s, double low,
                        double high, double noise_sigma, double duration_s,
                        std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = static_cast<std::size_t>(duration_s * 10.0);
  signal::Signal s(n, low);
  bool level_high = false;
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 10.0;
    if (next < times_s.size() && t >= times_s[next]) {
      level_high = !level_high;
      ++next;
    }
    s[i] = (level_high ? high : low) + rng.gaussian(0.0, noise_sigma);
  }
  return s;
}

TEST(Preprocess, EmptyInput) {
  const Preprocessor pre;
  const PreprocessResult r = pre.process({}, 1.0);
  EXPECT_TRUE(r.filtered.empty());
  EXPECT_TRUE(r.peaks.empty());
}

TEST(Preprocess, FlatSignalHasNoSignificantChanges) {
  const Preprocessor pre;
  const PreprocessResult r =
      pre.process_transmitted(steps_at({}, 100.0, 100.0, 1.0, 15.0, 1));
  EXPECT_TRUE(r.peaks.empty());
}

TEST(Preprocess, DetectsEachLargeStep) {
  const Preprocessor pre;
  const std::vector<double> truth{3.0, 7.0, 11.0};
  const PreprocessResult r = pre.process_transmitted(
      steps_at(truth, 40.0, 200.0, 2.0, 15.0, 2));
  ASSERT_EQ(r.change_times_s.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    // The causal variance/RMS windows shift reported peaks ~1-1.5 s late;
    // the shift is common to both signals so matching tolerates it.
    EXPECT_NEAR(r.change_times_s[i], truth[i] + 1.2, 1.0) << "step " << i;
  }
}

TEST(Preprocess, StagesHaveInputLength) {
  const Preprocessor pre;
  const signal::Signal raw = steps_at({5.0}, 50.0, 150.0, 1.0, 15.0, 3);
  const PreprocessResult r = pre.process_transmitted(raw);
  EXPECT_EQ(r.filtered.size(), raw.size());
  EXPECT_EQ(r.variance.size(), raw.size());
  EXPECT_EQ(r.thresholded.size(), raw.size());
  EXPECT_EQ(r.smoothed_variance.size(), raw.size());
}

TEST(Preprocess, HighFrequencyNoiseRemoved) {
  // Pure 4 Hz noise, no steps: nothing survives the 1 Hz low-pass + the
  // variance threshold.
  const Preprocessor pre;
  signal::Signal raw;
  for (int i = 0; i < 150; ++i) {
    raw.push_back(100.0 + 10.0 * std::sin(2.0 * M_PI * 4.0 * i / 10.0));
  }
  const PreprocessResult r = pre.process_transmitted(raw);
  EXPECT_TRUE(r.peaks.empty());
}

TEST(Preprocess, SmallSpikesKilledByThreshold) {
  // Noise-scale wobbles (sigma 0.5) produce variance < 2 everywhere: the
  // cut-off must zero them all.
  const Preprocessor pre;
  const PreprocessResult r = pre.process_received(
      steps_at({}, 100.0, 100.0, 0.5, 15.0, 4));
  for (double v : r.thresholded) {
    EXPECT_TRUE(v == 0.0 || v >= 2.0);
  }
  EXPECT_TRUE(r.peaks.empty());
}

TEST(Preprocess, FaceProminenceMoreSensitiveThanScreen) {
  // A modest step that the face threshold keeps but the screen threshold
  // (a larger prominence floor) may reject.
  const Preprocessor pre;
  const signal::Signal raw = steps_at({5.0}, 100.0, 112.0, 0.5, 15.0, 5);
  const PreprocessResult face = pre.process_received(raw);
  const PreprocessResult screen = pre.process_transmitted(raw);
  EXPECT_GE(face.peaks.size(), 1u);
  EXPECT_LE(screen.peaks.size(), face.peaks.size());
}

TEST(Preprocess, PeakMinDistanceEnforced) {
  const DetectorConfig cfg;
  const Preprocessor pre(cfg);
  const PreprocessResult r = pre.process_transmitted(
      steps_at({3.0, 7.0, 11.0}, 40.0, 200.0, 2.0, 15.0, 6));
  const auto min_gap = static_cast<std::size_t>(
      cfg.peak_min_distance_s * cfg.sample_rate_hz);
  for (std::size_t i = 1; i < r.peaks.size(); ++i) {
    EXPECT_GE(r.peaks[i].index - r.peaks[i - 1].index, min_gap);
  }
}

TEST(Preprocess, ChangeTimesMatchPeakIndices) {
  const DetectorConfig cfg;
  const Preprocessor pre(cfg);
  const PreprocessResult r = pre.process_transmitted(
      steps_at({4.0, 9.0}, 40.0, 200.0, 2.0, 15.0, 7));
  ASSERT_EQ(r.change_times_s.size(), r.peaks.size());
  for (std::size_t i = 0; i < r.peaks.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.change_times_s[i],
                     static_cast<double>(r.peaks[i].index) /
                         cfg.sample_rate_hz);
  }
}

TEST(Preprocess, LowerSampleRateStillFindsWellSeparatedSteps) {
  DetectorConfig cfg;
  cfg.sample_rate_hz = 8.0;
  const Preprocessor pre(cfg);
  // Build an 8 Hz signal with steps 6 s apart.
  common::Rng rng(8);
  signal::Signal raw;
  for (int i = 0; i < 120; ++i) {
    const double t = static_cast<double>(i) / 8.0;
    raw.push_back((t > 4.0 && t < 10.0 ? 200.0 : 40.0) +
                  rng.gaussian(0.0, 2.0));
  }
  const PreprocessResult r = pre.process_transmitted(raw);
  EXPECT_GE(r.peaks.size(), 1u);
}

// process() as the chain ran before the preprocessor designed its filters
// once: the low-pass taps and the Savitzky-Golay kernel derived on every
// call (finite input, so no sanitising).
PreprocessResult per_call_chain(const DetectorConfig& cfg,
                                const signal::Signal& raw,
                                double min_prominence) {
  PreprocessResult r;
  r.filtered = signal::design_lowpass(cfg.lowpass_cutoff_hz,
                                      cfg.sample_rate_hz, cfg.lowpass_taps)
                   .apply_zero_phase(raw);
  r.variance = signal::moving_variance(r.filtered, cfg.variance_window);
  r.thresholded = signal::threshold_filter(r.variance, cfg.variance_threshold);
  signal::Signal s = signal::moving_rms(r.thresholded, cfg.rms_window);
  s = signal::savgol_filter(s, cfg.savgol_window, cfg.savgol_order);
  r.smoothed_variance = signal::moving_average_centered(s, cfg.moving_avg_window);
  signal::PeakOptions opts;
  opts.min_prominence = min_prominence;
  opts.min_distance = static_cast<std::size_t>(
      std::lround(cfg.peak_min_distance_s * cfg.sample_rate_hz));
  r.peaks = signal::find_peaks(r.smoothed_variance, opts);
  for (const signal::Peak& p : r.peaks) {
    r.change_times_s.push_back(static_cast<double>(p.index) /
                               cfg.sample_rate_hz);
  }
  return r;
}

void expect_same_bits(const signal::Signal& a, const signal::Signal& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " sample " << i;
  }
}

TEST(Preprocess, DesignedOnceEqualsDesignedPerCallBitwise) {
  // Longer than, equal to and shorter than the 31-sample SG window (20
  // samples shrink the window; 3 are too short to smooth at all).
  for (const double rate : {5.0, 8.0, 10.0}) {
    DetectorConfig cfg;
    cfg.sample_rate_hz = rate;
    const Preprocessor pre(cfg);
    for (const std::size_t n : {std::size_t{150}, std::size_t{31},
                                std::size_t{20}, std::size_t{3}}) {
      common::Rng rng(static_cast<std::uint64_t>(rate * 1000) + n);
      signal::Signal raw(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / rate;
        raw[i] = (std::fmod(t, 6.0) < 3.0 ? 180.0 : 60.0) +
                 rng.gaussian(0.0, 2.0);
      }
      for (const double prominence :
           {cfg.screen_min_prominence, cfg.face_min_prominence}) {
        SCOPED_TRACE(testing::Message() << rate << " Hz, n=" << n
                                        << ", prominence " << prominence);
        const PreprocessResult got = pre.process(raw, prominence);
        const PreprocessResult want = per_call_chain(cfg, raw, prominence);
        expect_same_bits(got.filtered, want.filtered, "filtered");
        expect_same_bits(got.variance, want.variance, "variance");
        expect_same_bits(got.thresholded, want.thresholded, "thresholded");
        expect_same_bits(got.smoothed_variance, want.smoothed_variance,
                         "smoothed_variance");
        expect_same_bits(got.change_times_s, want.change_times_s,
                         "change_times_s");
        ASSERT_EQ(got.peaks.size(), want.peaks.size());
        for (std::size_t i = 0; i < got.peaks.size(); ++i) {
          EXPECT_EQ(got.peaks[i].index, want.peaks[i].index);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.peaks[i].prominence),
                    std::bit_cast<std::uint64_t>(want.peaks[i].prominence));
        }
      }
    }
  }
}

TEST(Preprocess, RejectsBrokenFilterDesignAtConstruction) {
  DetectorConfig at_nyquist;
  at_nyquist.lowpass_cutoff_hz = 5.0;  // Nyquist of the 10 Hz default
  EXPECT_THROW(Preprocessor{at_nyquist}, std::invalid_argument);
  DetectorConfig slow;
  slow.sample_rate_hz = 1.5;  // the 1 Hz cut-off lies above 0.75 Hz
  EXPECT_THROW(Preprocessor{slow}, std::invalid_argument);
  DetectorConfig nan_cutoff;
  nan_cutoff.lowpass_cutoff_hz = std::nan("");
  EXPECT_THROW(Preprocessor{nan_cutoff}, std::invalid_argument);
  DetectorConfig overfit;
  overfit.savgol_order = overfit.savgol_window;  // no overdetermined fit
  EXPECT_THROW(Preprocessor{overfit}, std::invalid_argument);
}

}  // namespace
}  // namespace lumichat::core
