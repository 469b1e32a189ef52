#include "face/landmark_detector.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace lumichat::face {
namespace {

// Anthropometric placement constants, calibrated once against the
// renderer's ground-truth landmarks (tests/face/landmark_detector_test.cpp
// guards the calibration): offsets from the skin-mask centroid in units of
// the estimated face half-axes.
constexpr double kHalfAxisPerSigma = 2.05;  // half-axis ~ 2 sigma of a disc
constexpr double kCentroidBiasY = 0.085;    // hair/brow holes push centroid up
constexpr std::array<double, 4> kBridgeYOffsets = {-0.28, -0.15, -0.02, 0.035};
constexpr double kTipYOffset = 0.255;
constexpr std::array<double, 5> kTipXOffsets = {-0.12, -0.06, 0.0, 0.06, 0.12};

/// Skin-mask moments: count, Σx, Σy, Σx², Σy² over the pixels `skin(x, y)`
/// accepts. Integer sums — exact below 2^53, so they equal any double
/// accumulation of the same terms (a 512 x 512 frame keeps Σx² under
/// 2^37).
struct MaskMoments {
  std::uint64_t n = 0;
  std::uint64_t sx = 0;
  std::uint64_t sy = 0;
  std::uint64_t sxx = 0;
  std::uint64_t syy = 0;
};

template <class Skin>
MaskMoments mask_moments(std::size_t width, std::size_t height, Skin&& skin) {
  MaskMoments m;
  for (std::size_t y = 0; y < height; ++y) {
    std::uint64_t n = 0;
    std::uint64_t sx = 0;
    std::uint64_t sxx = 0;
    for (std::size_t x = 0; x < width; ++x) {
      if (!skin(x, y)) continue;
      n += 1;
      sx += x;
      sxx += x * x;
    }
    m.n += n;
    m.sx += sx;
    m.sxx += sxx;
    m.sy += n * y;
    m.syy += n * y * y;
  }
  return m;
}

/// Places the nasal landmarks from the mask moments (pass 2 and 3).
std::optional<Landmarks> place_landmarks(const MaskMoments& m,
                                         std::size_t min_mask_pixels) {
  const auto n = static_cast<double>(m.n);
  if (n < static_cast<double>(min_mask_pixels)) return std::nullopt;

  const double mx = static_cast<double>(m.sx) / n;
  const double my = static_cast<double>(m.sy) / n;
  const double var_x = std::max(0.0, static_cast<double>(m.sxx) / n - mx * mx);
  const double var_y = std::max(0.0, static_cast<double>(m.syy) / n - my * my);
  const double a_est = kHalfAxisPerSigma * std::sqrt(var_x);
  const double b_est = kHalfAxisPerSigma * std::sqrt(var_y);
  if (a_est < 2.0 || b_est < 2.0) return std::nullopt;

  // The mask centroid sits slightly below the geometric face centre (hair
  // and brows are excluded from the mask); compensate with the calibrated
  // bias before placing the nasal points.
  const double face_cy = my - kCentroidBiasY * b_est;
  const double nose_anchor = face_cy + kCentroidBiasY * b_est;  // == my

  Landmarks lm;
  for (std::size_t i = 0; i < lm.bridge.size(); ++i) {
    lm.bridge[i] = PointD{mx, nose_anchor + kBridgeYOffsets[i] * b_est};
  }
  for (std::size_t i = 0; i < lm.tip.size(); ++i) {
    lm.tip[i] =
        PointD{mx + kTipXOffsets[i] * a_est, nose_anchor + kTipYOffset * b_est};
  }
  return lm;
}

/// Smallest byte value r with (double)r >= threshold; 256 when none is
/// (threshold above 255, or NaN). Bytes widen to doubles exactly, so that r
/// is ceil(threshold), itself exact.
std::uint16_t min_passing_byte(double threshold) {
  if (!(threshold <= 255.0)) return 256;
  if (threshold <= 0.0) return 0;
  return static_cast<std::uint16_t>(std::ceil(threshold));
}

}  // namespace

LandmarkDetector::LandmarkDetector(DetectorSpec spec) : spec_(spec) {
  // (double)r is increasing in r, so each comparison the f64 skin test
  // makes holds exactly from its smallest passing byte upward.
  const std::uint16_t min_red = min_passing_byte(spec_.min_red);
  for (std::size_t v = 0; v < 256; ++v) {
    const double vd = static_cast<double>(v);
    min_r_for_b_[v] = std::max(
        min_red, min_passing_byte(spec_.min_rb_ratio * (vd + 1.0)));
    min_r_for_g_[v] = min_passing_byte(spec_.min_rg_ratio * (vd + 1.0));
  }
}

std::optional<Landmarks> LandmarkDetector::detect(
    const image::Image& frame) const {
  if (frame.empty()) return std::nullopt;
  // Pass 1: skin-chroma mask moments.
  return place_landmarks(
      mask_moments(frame.width(), frame.height(),
                   [&](std::size_t x, std::size_t y) {
                     const image::Pixel& p = frame(x, y);
                     return p.r >= spec_.min_red &&
                            p.r >= spec_.min_rb_ratio * (p.b + 1.0) &&
                            p.r >= spec_.min_rg_ratio * (p.g + 1.0);
                   }),
      spec_.min_mask_pixels);
}

std::optional<Landmarks> LandmarkDetector::detect(
    const image::ImageU8& frame) const {
  if (frame.empty()) return std::nullopt;
  return place_landmarks(
      mask_moments(frame.width(), frame.height(),
                   [&](std::size_t x, std::size_t y) {
                     const std::uint8_t* p = frame.row(y) + 3 * x;
                     return p[0] >= std::max(min_r_for_b_[p[2]],
                                             min_r_for_g_[p[1]]);
                   }),
      spec_.min_mask_pixels);
}

}  // namespace lumichat::face
