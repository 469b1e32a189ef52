#include "core/luminance_extractor.hpp"

#include <algorithm>
#include <stdexcept>

#include "face/roi.hpp"
#include "image/luminance.hpp"

namespace lumichat::core {

namespace {

// Every clip is recorded at the extraction rate (the simulation tick is the
// sampling tick), so a clip at any other rate is a caller error.
void require_rate(const chat::VideoClip& clip, const DetectorConfig& config) {
  if (clip.sample_rate_hz != config.sample_rate_hz) {
    throw std::invalid_argument(
        "LuminanceExtractor: clip rate differs from the extraction rate");
  }
}

/// append_received() for either frame form.
template <class Frame>
bool append_sample(const face::LandmarkDetector& detector, const Frame& frame,
                   ReceivedHold& hold, signal::Signal& out) {
  if (!frame.empty()) {
    if (const auto lm = detector.detect(frame)) {
      const image::RectF roi = face::nasal_roi_f(*lm);
      if (!roi.empty()) {
        const double value = image::roi_luminance(frame, roi);
        if (!hold.seen) {
          std::fill(out.begin(), out.end(), value);
          hold.seen = true;
        }
        hold.last = value;
        out.push_back(value);
        return true;
      }
    }
  }
  out.push_back(hold.last);
  return false;
}

}  // namespace

LuminanceExtractor::LuminanceExtractor(DetectorConfig config)
    : config_(config) {}

signal::Signal LuminanceExtractor::transmitted_signal(
    const chat::VideoClip& clip) const {
  require_rate(clip, config_);
  return clip.frame_luminance_signal();
}

ReceivedExtraction LuminanceExtractor::received_signal(
    const chat::VideoClip& clip) const {
  require_rate(clip, config_);
  ReceivedExtraction out;
  out.luminance.reserve(clip.size());
  ReceivedHold hold;
  for (const image::Image& frame : clip.frames) {
    if (!append_received(frame, hold, out.luminance)) ++out.failed_frames;
  }
  return out;
}

bool LuminanceExtractor::append_received(const image::Image& frame,
                                         ReceivedHold& hold,
                                         signal::Signal& out) const {
  return append_sample(landmark_detector_, frame, hold, out);
}

bool LuminanceExtractor::append_received(const image::ImageU8& frame,
                                         ReceivedHold& hold,
                                         signal::Signal& out) const {
  return append_sample(landmark_detector_, frame, hold, out);
}

}  // namespace lumichat::core
