#include "core/features.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "signal/delay.hpp"
#include "signal/dtw.hpp"
#include "signal/stats.hpp"

namespace lumichat::core {
namespace {

// Number of elements of `from` that have at least one element of `to`
// within `tolerance` after shifting `to` by -`shift` (i.e. comparing
// from[i] against to[j] - shift).
std::size_t count_matched(const std::vector<double>& from,
                          const std::vector<double>& to, double shift,
                          double tolerance) {
  std::size_t matched = 0;
  for (const double f : from) {
    for (const double t : to) {
      if (std::fabs((t - shift) - f) <= tolerance) {
        ++matched;
        break;
      }
    }
  }
  return matched;
}

}  // namespace

FeatureExtractor::FeatureExtractor(DetectorConfig config) : config_(config) {}

double FeatureExtractor::estimate_delay_s(
    const std::vector<double>& transmitted_times,
    const std::vector<double>& received_times) const {
  // Pair every transmitted change with the nearest later received change
  // inside the physically possible window, then average the differences.
  std::vector<double> diffs;
  for (const double t : transmitted_times) {
    double best = std::numeric_limits<double>::infinity();
    for (const double r : received_times) {
      const double d = r - t;
      // Small negative slack: peak-localisation error can put the
      // reflection a hair "before" the cause even though physics cannot.
      if (d >= -0.2 && d <= config_.max_delay_s &&
          std::fabs(d) < std::fabs(best)) {
        best = d;
      }
    }
    if (std::isfinite(best)) diffs.push_back(best);
  }
  if (diffs.empty()) return 0.0;
  // Median rather than mean: one spuriously paired change must not drag the
  // whole alignment off. For an even count the two middle elements are
  // averaged — taking only the upper one biases the estimate late by up to
  // half the gap between them.
  const auto mid = static_cast<std::ptrdiff_t>(diffs.size() / 2);
  std::nth_element(diffs.begin(), diffs.begin() + mid, diffs.end());
  double median = diffs[static_cast<std::size_t>(mid)];
  if (diffs.size() % 2 == 0) {
    const double lower = *std::max_element(diffs.begin(), diffs.begin() + mid);
    median = 0.5 * (lower + median);
  }
  return std::max(0.0, median);
}

FeatureExtraction FeatureExtractor::extract(
    const PreprocessResult& transmitted,
    const PreprocessResult& received) const {
  FeatureExtraction out;
  FeatureDiagnostics& diag = out.diagnostics;
  FeatureVector& z = out.features;

  const std::vector<double>& t_times = transmitted.change_times_s;
  const std::vector<double>& r_times = received.change_times_s;
  diag.transmitted_changes = t_times.size();
  diag.received_changes = r_times.size();

  diag.estimated_delay_s = estimate_delay_s(t_times, r_times);

  // --- Luminance change behaviour: z1 (Eq. 4) and z2 (Eq. 5) ---
  diag.matched_transmitted = count_matched(
      t_times, r_times, diag.estimated_delay_s, config_.match_tolerance_s);
  // For the received side the shift applies to the received times, i.e. we
  // compare r - delay against t: same formula with roles swapped and the
  // shift negated.
  std::size_t g = 0;
  for (const double r : r_times) {
    for (const double t : t_times) {
      if (std::fabs((r - diag.estimated_delay_s) - t) <=
          config_.match_tolerance_s) {
        ++g;
        break;
      }
    }
  }
  diag.matched_received = g;

  z.z1 = t_times.empty() ? 0.0
                         : static_cast<double>(diag.matched_transmitted) /
                               static_cast<double>(t_times.size());
  z.z2 = r_times.empty() ? 0.0
                         : static_cast<double>(diag.matched_received) /
                               static_cast<double>(r_times.size());

  // --- Luminance change trend: z3 and z4 ---
  const signal::Signal& t_full = transmitted.smoothed_variance;
  const signal::Signal& r_full = received.smoothed_variance;
  if (t_full.empty() || r_full.empty()) {
    z.z3 = 0.0;
    // Sentinel: clearly outside the legitimate z4 range (which the /30
    // scaling keeps well below ~1.5 in practice).
    z.z4 = 2.0;
    return out;
  }

  // Remove the estimated delay, then restrict both trends to the shifted
  // signal's valid range: outside it delay compensation only replicated the
  // boundary sample, and a constant tail correlates perfectly with anything
  // — inflating z3 for attackers precisely when the delay is largest.
  const double delay_samples =
      diag.estimated_delay_s * config_.sample_rate_hz;
  const signal::DelayedSignal shifted =
      signal::delay_signal_checked(r_full, -delay_samples);
  const std::size_t begin = shifted.valid_begin;
  const std::size_t end = std::min(shifted.valid_end, t_full.size());
  const std::size_t min_len = std::max<std::size_t>(4, 2 * config_.trend_segments);
  if (end <= begin || end - begin < min_len) {
    z.z3 = 0.0;
    z.z4 = 2.0;
    return out;
  }
  const signal::Signal t_trend(t_full.begin() + static_cast<std::ptrdiff_t>(begin),
                               t_full.begin() + static_cast<std::ptrdiff_t>(end));
  const signal::Signal r_trend(
      shifted.samples.begin() + static_cast<std::ptrdiff_t>(begin),
      shifted.samples.begin() + static_cast<std::ptrdiff_t>(end));
  const signal::Signal t_norm = signal::normalize01(t_trend);
  const signal::Signal r_norm = signal::normalize01(r_trend);

  const auto t_segs = signal::split_segments(t_norm, config_.trend_segments);
  const auto r_segs = signal::split_segments(r_norm, config_.trend_segments);

  double min_corr = std::numeric_limits<double>::infinity();
  double max_dtw = 0.0;
  for (std::size_t i = 0; i < t_segs.size() && i < r_segs.size(); ++i) {
    const std::size_t len = std::min(t_segs[i].size(), r_segs[i].size());
    if (len == 0) continue;
    const std::span<const double> ts(t_segs[i].data(), len);
    const std::span<const double> rs(r_segs[i].data(), len);
    min_corr = std::min(min_corr, signal::pearson(ts, rs));
    max_dtw = std::max(max_dtw, signal::dtw_distance(ts, rs));
  }
  z.z3 = std::isfinite(min_corr) ? min_corr : 0.0;
  z.z4 = max_dtw / config_.dtw_scale;
  return out;
}

}  // namespace lumichat::core
