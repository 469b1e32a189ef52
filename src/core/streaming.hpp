// Streaming (real-time) front end for the detector.
//
// The batch Detector consumes complete 15-second clips. A deployed system
// sees one frame at a time; this wrapper does the per-frame work (luminance
// extraction at the configured sampling rate) incrementally and emits a
// DetectionResult whenever a full window of samples has accumulated,
// keeping a running majority vote across windows (Sec. VII-B). Both steps
// are the batch Detector's own: each received frame goes through its
// extractor's append_received(), each full window through detect_window().
//
//   StreamingDetector sd(config);
//   sd.attach_model(model::fit_lof_model(config.detector, legit_features));
//   while (chatting) {
//     if (auto r = sd.push(t, my_sent_frame, their_frame)) {
//       alert_if(r->is_attacker);
//     }
//   }
#pragma once

#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/luminance_extractor.hpp"
#include "core/voting.hpp"
#include "image/image.hpp"

namespace lumichat::core {

struct StreamingConfig {
  DetectorConfig detector{};
  /// Length of one detection window (the paper's clip length).
  double window_s = 15.0;
};

/// Evidence discarded when a partially accumulated window is flushed (a
/// session torn down mid-window loses up to window_samples-1 samples; the
/// service layer reports that loss instead of discarding it silently).
struct FlushReport {
  /// Samples that had accumulated toward the incomplete window.
  std::size_t pending_samples = 0;
  /// Samples a complete window needs.
  std::size_t window_samples = 0;
  /// pending_samples / window_samples (0 when nothing was pending).
  double window_fill = 0.0;
};

class StreamingDetector {
 public:
  /// \throws std::invalid_argument unless the sampling rate is finite and
  ///   positive and a window holds at least one and at most
  ///   vector::max_size() samples (window_s * sample_rate_hz, rounded).
  explicit StreamingDetector(StreamingConfig config = {});

  /// Attaches a shared immutable LOF model (see Detector::attach_model).
  /// Cheap — a pointer swap; the service runtime re-attaches the current
  /// registry snapshot whenever it hands a detector to a new session.
  void attach_model(std::shared_ptr<const model::LofModelSnapshot> snapshot) {
    detector_.attach_model(std::move(snapshot));
  }
  [[nodiscard]] const std::shared_ptr<const model::LofModelSnapshot>& model()
      const {
    return detector_.model();
  }

  [[nodiscard]] bool is_trained() const { return detector_.is_trained(); }

  /// Feeds one simultaneous pair of frames at time `t_sec` (non-decreasing).
  /// Frames arriving faster than the configured sampling rate are skipped;
  /// a received frame without a usable face holds the previous luminance
  /// value (LuminanceExtractor::append_received). Returns a verdict each
  /// time a full window completes, std::nullopt otherwise.
  [[nodiscard]] std::optional<DetectionResult> push(
      double t_sec, const image::Image& transmitted,
      const image::Image& received);
  /// As above for an 8-bit pair: the verdicts of its widened Images, bit
  /// for bit.
  [[nodiscard]] std::optional<DetectionResult> push(
      double t_sec, const image::ImageU8& transmitted,
      const image::ImageU8& received);

  /// Majority-vote outcome over all completed windows so far.
  [[nodiscard]] VoteOutcome running_verdict() const;

  /// Number of completed detection windows.
  [[nodiscard]] std::size_t windows_completed() const {
    return window_verdicts_.size();
  }

  /// Samples accumulated toward the current (incomplete) window.
  [[nodiscard]] std::size_t pending_samples() const {
    return t_buffer_.size();
  }

  /// Drops any partially accumulated window (e.g. after a hold/resume) and
  /// reports how much evidence was dropped, so callers tearing a session
  /// down mid-window can account for it instead of losing it invisibly.
  FlushReport flush();

  /// Returns the detector to its just-trained state: partial window, window
  /// verdicts, sampling phase, stream id and the hold-last received-luminance
  /// state are all cleared; the trained model is kept. A reset detector
  /// reproduces a fresh detector's verdicts bit-exactly, which is what lets
  /// the service runtime recycle detector instances across sessions without
  /// retraining.
  void reset();

  /// Label stamped into every emitted RoundExplanation (the service layer
  /// sets the session id here). Cleared to 0 by reset().
  void set_stream_id(std::uint64_t id) { stream_id_ = id; }
  [[nodiscard]] std::uint64_t stream_id() const { return stream_id_; }

  /// Where completed windows send their explanation records (defaults to
  /// the process default; nullptr = silent).
  void set_explanation_sink(obs::ExplanationSink* sink) {
    detector_.set_explanation_sink(sink);
  }
  [[nodiscard]] obs::ExplanationSink* explanation_sink() const {
    return detector_.explanation_sink();
  }

  [[nodiscard]] const StreamingConfig& config() const { return config_; }

 private:
  StreamingConfig config_;
  Detector detector_;

  signal::Signal t_buffer_;
  signal::Signal r_buffer_;
  double next_sample_at_ = 0.0;
  ReceivedHold r_hold_;
  /// Samples of the current window backed by a real landmark hit (vs the
  /// hold-last fallback) — the window_completeness numerator.
  std::size_t real_r_samples_ = 0;
  std::size_t window_samples_ = 0;
  std::uint64_t stream_id_ = 0;
  std::vector<Verdict> window_verdicts_;

  void reset_window();
  void emit_explanation(const DetectionResult& result);
  template <class Frame>
  std::optional<DetectionResult> push_pair(double t_sec,
                                           const Frame& transmitted,
                                           const Frame& received);
};

}  // namespace lumichat::core
