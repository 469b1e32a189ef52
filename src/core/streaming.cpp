#include "core/streaming.hpp"

#include <cmath>

#include "face/roi.hpp"
#include "image/luminance.hpp"
#include "obs/trace.hpp"

namespace lumichat::core {

StreamingDetector::StreamingDetector(StreamingConfig config)
    : config_(config), detector_(config.detector),
      preprocessor_(config.detector), features_(config.detector) {
  window_samples_ = static_cast<std::size_t>(
      std::llround(config_.window_s * config_.detector.sample_rate_hz));
  t_buffer_.reserve(window_samples_);
  r_buffer_.reserve(window_samples_);
}

void StreamingDetector::reset_window() {
  t_buffer_.clear();
  r_buffer_.clear();
  real_r_samples_ = 0;
}

FlushReport StreamingDetector::flush() {
  FlushReport report;
  report.pending_samples = t_buffer_.size();
  report.window_samples = window_samples_;
  if (window_samples_ > 0) {
    report.window_fill = static_cast<double>(report.pending_samples) /
                         static_cast<double>(window_samples_);
  }
  reset_window();
  return report;
}

void StreamingDetector::reset() {
  reset_window();
  window_verdicts_.clear();
  next_sample_at_ = 0.0;
  last_r_value_ = 0.0;
  have_r_value_ = false;
  stream_id_ = 0;
}

void StreamingDetector::emit_explanation(const DetectionResult& result) {
  obs::ExplanationSink* sink = detector_.explanation_sink();
  if (sink == nullptr) return;
  const VoteOutcome tally = running_verdict();
  sink->emit(detector_.explain(
      result, stream_id_,
      static_cast<std::uint64_t>(window_verdicts_.size() - 1), &tally));
}

std::optional<DetectionResult> StreamingDetector::push(
    double t_sec, const image::Image& transmitted,
    const image::Image& received) {
  if (t_sec + 1e-9 < next_sample_at_) return std::nullopt;  // too fast
  next_sample_at_ = t_sec + 1.0 / config_.detector.sample_rate_hz;

  // Transmitted: whole-frame mean luminance (Eq. 3).
  t_buffer_.push_back(image::frame_luminance(transmitted));

  // Received: nasal-bridge ROI via the landmark detector, with the batch
  // extractor's hold-last fallback.
  double r_value = last_r_value_;
  bool real_sample = false;
  if (!received.empty()) {
    if (const auto lm = landmarks_.detect(received)) {
      const image::RectF roi = face::nasal_roi_f(*lm);
      if (!roi.empty()) {
        r_value = image::roi_luminance(received, roi);
        real_sample = true;
        if (!have_r_value_) {
          // Backfill earlier hold-over samples of this window.
          for (double& v : r_buffer_) v = r_value;
          have_r_value_ = true;
        }
        last_r_value_ = r_value;
      }
    }
  }
  r_buffer_.push_back(r_value);
  if (real_sample) ++real_r_samples_;

  if (t_buffer_.size() < window_samples_) return std::nullopt;

  // Window complete: run the batch pipeline on the buffered signals.
  const obs::ObsSpan span("stream.window");
  const PreprocessResult t_pre = preprocessor_.process_transmitted(t_buffer_);
  const PreprocessResult r_pre = preprocessor_.process_received(r_buffer_);

  const double completeness =
      window_samples_ == 0 ? 0.0
                           : static_cast<double>(real_r_samples_) /
                                 static_cast<double>(window_samples_);
  const SignalQuality t_quality = assess_signal_quality(t_pre, 1.0);
  const SignalQuality r_quality = assess_signal_quality(r_pre, completeness);

  if (config_.detector.enable_abstain &&
      quality_insufficient(t_quality, r_quality, config_.detector)) {
    DetectionResult result;
    result.verdict = Verdict::kAbstain;
    result.transmitted_quality = t_quality;
    result.received_quality = r_quality;
    window_verdicts_.push_back(result.verdict);
    emit_explanation(result);
    reset_window();
    return result;
  }

  const FeatureExtraction fx = features_.extract(t_pre, r_pre);
  DetectionResult result = detector_.classify(fx.features);
  result.diagnostics = fx.diagnostics;
  result.transmitted_quality = t_quality;
  result.received_quality = r_quality;
  window_verdicts_.push_back(result.verdict);
  emit_explanation(result);
  reset_window();
  return result;
}

VoteOutcome StreamingDetector::running_verdict() const {
  return majority_vote(window_verdicts_, config_.detector.vote_fraction);
}

}  // namespace lumichat::core
