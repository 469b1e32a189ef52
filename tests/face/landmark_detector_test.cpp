#include "face/landmark_detector.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "../image/u8_frames.hpp"
#include "common/rng.hpp"
#include "face/renderer.hpp"
#include "face/roi.hpp"
#include "image/luminance.hpp"
#include "optics/camera.hpp"

namespace lumichat::face {
namespace {

image::Pixel lux(double v) { return image::Pixel{v, v, v}; }

// Renders volunteer `vol` at `state` and captures it with a noiseless
// camera, producing the 8-bit frame the detector sees in production.
image::Image captured_frame(std::size_t vol, const FaceState& state) {
  FaceRenderer r(make_volunteer_face(vol));
  optics::CameraSpec cam_spec;
  cam_spec.read_noise_sigma = 0.0;
  cam_spec.shot_noise_coeff = 0.0;
  cam_spec.quantize = true;
  optics::CameraModel cam(cam_spec, 1);
  return cam.capture(r.render(state, lux(80), lux(50)));
}

FaceState centered() {
  FaceState s;
  s.cx = 0.5;
  s.cy = 0.52;
  return s;
}

TEST(LandmarkDetector, FindsFaceOnCapturedFrame) {
  const LandmarkDetector det;
  EXPECT_TRUE(det.detect(captured_frame(0, centered())).has_value());
}

TEST(LandmarkDetector, NoFaceInEmptyOrBlankFrames) {
  const LandmarkDetector det;
  EXPECT_FALSE(det.detect(image::Image{}).has_value());
  EXPECT_FALSE(det.detect(image::Image(96, 72)).has_value());
  EXPECT_FALSE(
      det.detect(image::Image(96, 72, image::Pixel{128, 128, 128})).has_value());
}

// Calibration guard: across all volunteers and several poses, the detected
// nasal-bridge lower point must track the renderer's ground truth to within
// a small fraction of the face size. The constants in landmark_detector.cpp
// were fitted against exactly this criterion.
class DetectorAccuracy
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, double>> {
};

TEST_P(DetectorAccuracy, BridgePointNearTruth) {
  const auto [vol, cx, scale] = GetParam();
  FaceState s = centered();
  s.cx = cx;
  s.scale = scale;

  FaceRenderer r(make_volunteer_face(vol));
  const Landmarks truth = r.true_landmarks(s);
  const auto detected = LandmarkDetector{}.detect(captured_frame(vol, s));
  ASSERT_TRUE(detected.has_value()) << "vol=" << vol;

  const double face_h = make_volunteer_face(vol).face_width_frac * 96.0 *
                        make_volunteer_face(vol).face_aspect * scale;
  const double tol = 0.18 * face_h;  // fraction of the face height

  const double dx = detected->bridge_lower().x - truth.bridge_lower().x;
  const double dy = detected->bridge_lower().y - truth.bridge_lower().y;
  EXPECT_LT(std::hypot(dx, dy), tol)
      << "vol=" << vol << " offset (" << dx << ", " << dy << ")";

  const double tx = detected->tip_center().x - truth.tip_center().x;
  const double ty = detected->tip_center().y - truth.tip_center().y;
  EXPECT_LT(std::hypot(tx, ty), tol)
      << "vol=" << vol << " tip offset (" << tx << ", " << ty << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllVolunteers, DetectorAccuracy,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 4, 5, 6, 7,
                                                      8, 9),
                       ::testing::Values(0.45, 0.5, 0.55),
                       ::testing::Values(0.9, 1.0, 1.1)));

TEST(LandmarkDetector, WorksAcrossExposureLevels) {
  // The chroma mask is exposure-invariant: the same face detected whether
  // the frame is exposed dark or bright.
  FaceRenderer r(make_volunteer_face(3));
  optics::CameraSpec cam_spec;
  cam_spec.read_noise_sigma = 0.0;
  cam_spec.shot_noise_coeff = 0.0;
  for (const double target : {0.25, 0.45, 0.65}) {
    optics::CameraSpec spec = cam_spec;
    spec.exposure_target = target;
    optics::CameraModel cam(spec, 1);
    const image::Image f = cam.capture(r.render(centered(), lux(80), lux(50)));
    EXPECT_TRUE(LandmarkDetector{}.detect(f).has_value())
        << "exposure target " << target;
  }
}

TEST(LandmarkDetector, RobustToSensorNoise) {
  FaceRenderer r(make_volunteer_face(4));
  optics::CameraSpec noisy;
  noisy.read_noise_sigma = 2.0;
  optics::CameraModel cam(noisy, 7);
  const LandmarkDetector det;
  int found = 0;
  for (int i = 0; i < 20; ++i) {
    if (det.detect(cam.capture(r.render(centered(), lux(80), lux(50))))) {
      ++found;
    }
  }
  EXPECT_GE(found, 19);
}

TEST(LandmarkDetector, BridgeOrderedAboveTip) {
  const auto lm = LandmarkDetector{}.detect(captured_frame(0, centered()));
  ASSERT_TRUE(lm.has_value());
  for (std::size_t i = 1; i < lm->bridge.size(); ++i) {
    EXPECT_GE(lm->bridge[i].y, lm->bridge[i - 1].y);
  }
  EXPECT_GT(lm->tip_center().y, lm->bridge_lower().y);
}

TEST(LandmarkDetector, DetectionJitterIsSubpixelScale) {
  // Across noisy captures of the SAME pose, the detected bridge point moves
  // by at most ~1 px std dev — the jitter level the sub-pixel ROI absorbs.
  FaceRenderer r(make_volunteer_face(4));
  optics::CameraSpec noisy;
  noisy.read_noise_sigma = 1.5;
  optics::CameraModel cam(noisy, 21);
  const LandmarkDetector det;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) {
    const auto lm = det.detect(cam.capture(r.render(centered(), lux(80), lux(50))));
    ASSERT_TRUE(lm.has_value());
    ys.push_back(lm->bridge_lower().y);
  }
  double mean = 0.0;
  for (double y : ys) mean += y;
  mean /= static_cast<double>(ys.size());
  double var = 0.0;
  for (double y : ys) var += (y - mean) * (y - mean);
  var /= static_cast<double>(ys.size());
  EXPECT_LT(std::sqrt(var), 1.0);
}

// --- 8-bit frames: the widened Image's landmarks, bit for bit ------------

using image::testutil::random_u8;
using image::testutil::to_u8;
using image::testutil::widen;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Detects on `u8` and on its widened Image and asserts the same outcome:
/// both nullopt, or every landmark coordinate with the same bits. Returns
/// whether a face was found.
bool expect_same_detection(const LandmarkDetector& det,
                           const image::ImageU8& u8) {
  const std::optional<Landmarks> a = det.detect(u8);
  const std::optional<Landmarks> b = det.detect(widen(u8));
  EXPECT_EQ(a.has_value(), b.has_value());
  if (!a || !b) return false;
  for (std::size_t i = 0; i < a->bridge.size(); ++i) {
    EXPECT_EQ(bits(a->bridge[i].x), bits(b->bridge[i].x)) << "bridge " << i;
    EXPECT_EQ(bits(a->bridge[i].y), bits(b->bridge[i].y)) << "bridge " << i;
  }
  for (std::size_t i = 0; i < a->tip.size(); ++i) {
    EXPECT_EQ(bits(a->tip[i].x), bits(b->tip[i].x)) << "tip " << i;
    EXPECT_EQ(bits(a->tip[i].y), bits(b->tip[i].y)) << "tip " << i;
  }
  return true;
}

TEST(LandmarkDetectorU8, RenderedFacesMatchWidenedFrame) {
  const LandmarkDetector det;
  optics::CameraSpec noisy;
  noisy.read_noise_sigma = 2.0;
  std::size_t found = 0;
  for (std::size_t vol = 0; vol < 10; ++vol) {
    FaceRenderer r(make_volunteer_face(vol));
    optics::CameraModel cam(noisy, 40 + vol);
    for (const double cx : {0.2, 0.5, 0.8}) {
      FaceState s = centered();
      s.cx = cx;
      const image::ImageU8 u8 =
          to_u8(cam.capture(r.render(s, lux(80), lux(50))));
      if (expect_same_detection(det, u8)) {
        ++found;
        // The sampled value too: the nasal ROI mean of either form.
        const image::RectF roi = nasal_roi_f(*det.detect(u8));
        EXPECT_EQ(bits(image::roi_luminance(u8, roi)),
                  bits(image::roi_luminance(widen(u8), roi)));
      }
    }
  }
  EXPECT_GE(found, 20u);  // not a vacuous pass over nullopt frames
}

TEST(LandmarkDetectorU8, NoFaceFramesMatchWidenedFrame) {
  const LandmarkDetector det;
  common::Rng rng(2504);
  EXPECT_FALSE(det.detect(image::ImageU8{}).has_value());
  EXPECT_FALSE(expect_same_detection(det, image::ImageU8(96, 72)));
  // A skin patch smaller than min_mask_pixels, and a one-pixel-wide skin
  // column (a half-axis under 2 px): both are rejected.
  image::ImageU8 patch(96, 72);
  image::ImageU8 column(96, 72);
  for (std::size_t y = 0; y < 72; ++y) {
    for (std::size_t x = 0; x < 96; ++x) {
      const bool in_patch = x >= 40 && x < 45 && y >= 30 && y < 36;
      for (image::ImageU8* f : {&patch, &column}) {
        const bool skin = f == &patch ? in_patch : x == 50;
        std::uint8_t* p = f->data() + 3 * (y * 96 + x);
        p[0] = skin ? 200 : 60;
        p[1] = skin ? 120 : 60;
        p[2] = skin ? 90 : 60;
      }
    }
  }
  EXPECT_FALSE(expect_same_detection(det, patch));
  EXPECT_FALSE(expect_same_detection(det, column));
  // Uniform noise: about a tenth of the pixels pass the skin test.
  for (int trial = 0; trial < 8; ++trial) {
    (void)expect_same_detection(det, random_u8(96, 72, rng));
  }
}

TEST(LandmarkDetectorU8, SkinTableMatchesDoubleTestForAnySpec) {
  // Frames whose pixels run r over 0..255 against a spread of (g, b); with
  // min_mask_pixels 1, one pixel classified differently moves the moments.
  image::ImageU8 sweep(256, 64);
  for (std::size_t y = 0; y < 64; ++y) {
    for (std::size_t x = 0; x < 256; ++x) {
      std::uint8_t* p = sweep.data() + 3 * (y * 256 + x);
      p[0] = static_cast<std::uint8_t>(x);
      p[1] = static_cast<std::uint8_t>((y * 53 + x / 16) % 256);
      p[2] = static_cast<std::uint8_t>((y * 37 + 11) % 256);
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<DetectorSpec> specs(7);
  specs[1].min_red = 17.5;
  specs[1].min_rb_ratio = 1.0 / 3.0;
  specs[1].min_rg_ratio = 0.7;
  specs[2].min_red = -1.0;
  specs[2].min_rb_ratio = 0.0;
  specs[2].min_rg_ratio = -0.5;
  specs[3].min_red = 200.0;
  specs[4].min_red = 255.5;  // nothing passes
  specs[5].min_rb_ratio = nan;
  specs[6].min_rg_ratio = 1.0 + std::numeric_limits<double>::epsilon();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    specs[k].min_mask_pixels = 1;
    SCOPED_TRACE(::testing::Message() << "spec " << k);
    const bool found = expect_same_detection(LandmarkDetector(specs[k]), sweep);
    EXPECT_EQ(found, k != 4 && k != 5);
  }
}

}  // namespace
}  // namespace lumichat::face
