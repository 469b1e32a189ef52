// Nasal landmark detection on captured frames.
//
// Stands in for the Python facial-recognition API the paper calls (Sec. IV):
// it reports the same nine nasal landmarks (Fig. 5) and exhibits the same
// failure modes — localisation jitter under sensor noise and occasional
// outright failure when the face is not distinguishable. The pipeline is the
// classic pre-CNN one:
//   1. skin-chroma mask (human skin is warm: R > G > B at every tone, and
//      crucially R/B stays > ~1.4 under any exposure because exposure gain
//      is channel-uniform);
//   2. robust moments of the mask give the face centre and half-axes;
//   3. nasal points are placed from anthropometric constants calibrated
//      against the renderer's ground truth (the same way a real landmark
//      model is trained against annotated data).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "face/landmarks.hpp"
#include "image/image.hpp"

namespace lumichat::face {

/// Tunables of the detector.
struct DetectorSpec {
  /// Minimum red value (8-bit LSB) for a pixel to be considered lit skin.
  double min_red = 18.0;
  /// Minimum R/B ratio for skin chroma.
  double min_rb_ratio = 1.25;
  /// Minimum R/G ratio for skin chroma.
  double min_rg_ratio = 1.05;
  /// Minimum number of mask pixels for a confident detection.
  std::size_t min_mask_pixels = 40;
};

class LandmarkDetector {
 public:
  explicit LandmarkDetector(DetectorSpec spec = {});

  /// Detects nasal landmarks in an 8-bit-range captured frame.
  /// Returns std::nullopt when no face-like region is found.
  [[nodiscard]] std::optional<Landmarks> detect(
      const image::Image& frame) const;

  /// As above over an 8-bit frame: the widened Image's landmarks, bit for
  /// bit (the skin test compares the same doubles, and the mask moments
  /// are the same integers).
  [[nodiscard]] std::optional<Landmarks> detect(
      const image::ImageU8& frame) const;

  [[nodiscard]] const DetectorSpec& spec() const { return spec_; }

 private:
  DetectorSpec spec_;
  /// The skin test precomputed per byte value: an 8-bit pixel is skin iff
  /// r >= max(min_r_for_b_[b], min_r_for_g_[g]), each entry being the
  /// smallest r (256: none) that passes the spec's double comparisons for
  /// that b or g. min_red is folded into the b table.
  std::array<std::uint16_t, 256> min_r_for_b_{};
  std::array<std::uint16_t, 256> min_r_for_g_{};
};

}  // namespace lumichat::face
