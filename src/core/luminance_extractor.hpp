// Luminance extraction (Sec. IV).
//
// Two signals feed the detector:
//  * the TRANSMITTED signal: each frame of Alice's outgoing video compressed
//    to a single pixel, i.e. the frame-mean relative luminance (Eq. 3);
//  * the RECEIVED signal: the mean luminance of the lower-nasal-bridge
//    region of Bob's incoming video, located per frame with the landmark
//    detector and the Fig. 5 interested-area rule.
//
// Landmark detection can fail on individual frames (face turned away, not
// yet arrived, too dark). The extractor holds the last valid value — a real
// streaming system cannot do better — and reports how many frames needed
// that fallback so callers can reject hopeless clips. append_received() is
// the one frame-to-sample rule: the batch received_signal() and the
// StreamingDetector both run every received frame through it.
#pragma once

#include "chat/video.hpp"
#include "core/config.hpp"
#include "face/landmark_detector.hpp"
#include "signal/types.hpp"

namespace lumichat::core {

/// Result of extracting the received-video signal.
struct ReceivedExtraction {
  signal::Signal luminance;     ///< nasal-ROI luminance per sampled frame
  std::size_t failed_frames = 0;  ///< frames where detection fell back
};

/// Hold-last state of one received signal, carried from frame to frame.
struct ReceivedHold {
  double last = 0.0;  ///< the value a missed frame repeats
  bool seen = false;  ///< a real sample has arrived
};

class LuminanceExtractor {
 public:
  explicit LuminanceExtractor(DetectorConfig config = {});

  /// Whole-frame luminance signal of the transmitted video.
  /// \throws std::invalid_argument if the clip was not recorded at the
  ///   configured sampling rate.
  [[nodiscard]] signal::Signal transmitted_signal(
      const chat::VideoClip& clip) const;

  /// Nasal-bridge luminance signal of the received video.
  /// \throws std::invalid_argument as transmitted_signal().
  [[nodiscard]] ReceivedExtraction received_signal(
      const chat::VideoClip& clip) const;

  /// Appends one received frame's sample to `out`. A non-empty frame whose
  /// landmarks give a non-empty nasal ROI yields its ROI luminance (returns
  /// true); any other frame repeats `hold.last` (returns false). The first
  /// real sample also overwrites every sample already in `out`, so the
  /// filter chain sees no fake step before the face first appears.
  bool append_received(const image::Image& frame, ReceivedHold& hold,
                       signal::Signal& out) const;
  /// As above over an 8-bit frame: the same sample as its widened Image.
  bool append_received(const image::ImageU8& frame, ReceivedHold& hold,
                       signal::Signal& out) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
  face::LandmarkDetector landmark_detector_;
};

}  // namespace lumichat::core
