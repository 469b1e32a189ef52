#include "core/streaming.hpp"

#include <cmath>
#include <stdexcept>

#include "image/luminance.hpp"

namespace lumichat::core {

StreamingDetector::StreamingDetector(StreamingConfig config)
    : config_(config), detector_(config.detector) {
  const double rate = config_.detector.sample_rate_hz;
  if (!(std::isfinite(rate) && rate > 0.0)) {
    throw std::invalid_argument(
        "StreamingDetector: sample_rate_hz must be finite and positive");
  }
  // NaN and infinity fail both comparisons; 0.5 is where llround reaches 1.
  const double samples = config_.window_s * rate;
  if (!(samples >= 0.5 &&
        samples <= static_cast<double>(t_buffer_.max_size()))) {
    throw std::invalid_argument(
        "StreamingDetector: window_s * sample_rate_hz must round to at least "
        "one sample and fit in a buffer");
  }
  window_samples_ = static_cast<std::size_t>(std::llround(samples));
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
  report.window_fill = static_cast<double>(report.pending_samples) /
                       static_cast<double>(window_samples_);
  reset_window();
  return report;
}

void StreamingDetector::reset() {
  reset_window();
  window_verdicts_.clear();
  next_sample_at_ = 0.0;
  r_hold_ = {};
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

template <class Frame>
std::optional<DetectionResult> StreamingDetector::push_pair(
    double t_sec, const Frame& transmitted, const Frame& received) {
  if (t_sec + 1e-9 < next_sample_at_) return std::nullopt;  // too fast
  next_sample_at_ = t_sec + 1.0 / config_.detector.sample_rate_hz;

  // Transmitted: whole-frame mean luminance (Eq. 3). Received: the batch
  // extractor's nasal-ROI rule with its hold-last state.
  t_buffer_.push_back(image::frame_luminance(transmitted));
  if (detector_.extractor().append_received(received, r_hold_, r_buffer_)) {
    ++real_r_samples_;
  }
  if (t_buffer_.size() < window_samples_) return std::nullopt;

  DetectionResult result = detector_.detect_window(
      t_buffer_, r_buffer_,
      static_cast<double>(real_r_samples_) /
          static_cast<double>(window_samples_));
  window_verdicts_.push_back(result.verdict);
  emit_explanation(result);
  reset_window();
  return result;
}

std::optional<DetectionResult> StreamingDetector::push(
    double t_sec, const image::Image& transmitted,
    const image::Image& received) {
  return push_pair(t_sec, transmitted, received);
}

std::optional<DetectionResult> StreamingDetector::push(
    double t_sec, const image::ImageU8& transmitted,
    const image::ImageU8& received) {
  return push_pair(t_sec, transmitted, received);
}

VoteOutcome StreamingDetector::running_verdict() const {
  return majority_vote(window_verdicts_, config_.detector.vote_fraction);
}

}  // namespace lumichat::core
