#include "core/luminance_extractor.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "face/renderer.hpp"
#include "optics/camera.hpp"

namespace lumichat::core {
namespace {

image::Pixel lux(double v) { return image::Pixel{v, v, v}; }

chat::VideoClip face_clip(double illum_lo, double illum_hi,
                          std::size_t n = 50) {
  face::FaceRenderer renderer(face::make_volunteer_face(1));
  optics::CameraSpec cam_spec;
  cam_spec.read_noise_sigma = 0.5;
  cam_spec.adaptation_rate = 0.0;  // isolate reflection from AE dynamics
  optics::CameraModel cam(cam_spec, 3);
  face::FaceState state;
  state.cx = 0.5;
  state.cy = 0.52;

  chat::VideoClip clip;
  clip.sample_rate_hz = 10.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double level = i < n / 2 ? illum_lo : illum_hi;
    clip.frames.push_back(cam.capture(renderer.render(state, lux(level),
                                                      lux(40))));
  }
  return clip;
}

TEST(Extractor, TransmittedSignalIsFrameMeanLuminance) {
  const LuminanceExtractor ex;
  chat::VideoClip clip;
  clip.sample_rate_hz = 10.0;
  clip.frames.push_back(image::Image(4, 4, image::Pixel{50, 50, 50}));
  clip.frames.push_back(image::Image(4, 4, image::Pixel{150, 150, 150}));
  const auto s = ex.transmitted_signal(clip);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(s[0], 50.0, 1e-9);
  EXPECT_NEAR(s[1], 150.0, 1e-9);
}

TEST(Extractor, ReceivedSignalTracksFaceIlluminance) {
  const LuminanceExtractor ex;
  const ReceivedExtraction r = ex.received_signal(face_clip(30.0, 120.0));
  ASSERT_EQ(r.luminance.size(), 50u);
  EXPECT_EQ(r.failed_frames, 0u);
  // Second half (brighter illuminant) must read clearly brighter.
  double first = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < 25; ++i) first += r.luminance[i];
  for (std::size_t i = 25; i < 50; ++i) second += r.luminance[i];
  EXPECT_GT(second / 25.0, first / 25.0 + 10.0);
}

TEST(Extractor, EmptyFramesHoldLastValue) {
  const LuminanceExtractor ex;
  chat::VideoClip clip = face_clip(60.0, 60.0, 10);
  clip.frames.insert(clip.frames.begin() + 5, image::Image{});  // dropout
  const ReceivedExtraction r = ex.received_signal(clip);
  EXPECT_EQ(r.failed_frames, 1u);
  EXPECT_NEAR(r.luminance[5], r.luminance[4], 1e-9);
}

TEST(Extractor, LeadingFailuresBackfilledWithFirstValidValue) {
  const LuminanceExtractor ex;
  chat::VideoClip clip = face_clip(60.0, 60.0, 10);
  clip.frames.insert(clip.frames.begin(), image::Image{});
  clip.frames.insert(clip.frames.begin(), image::Image{});
  const ReceivedExtraction r = ex.received_signal(clip);
  EXPECT_EQ(r.failed_frames, 2u);
  // No fake step at the start: first samples equal the first real one.
  EXPECT_NEAR(r.luminance[0], r.luminance[2], 1e-9);
  EXPECT_NEAR(r.luminance[1], r.luminance[2], 1e-9);
}

TEST(Extractor, AppendReceivedIsTheBatchRuleFrameByFrame) {
  // The streaming detector feeds frames one at a time through
  // append_received(); it must build the batch signal bit for bit, the
  // leading backfill and hold-last included.
  const LuminanceExtractor ex;
  chat::VideoClip clip = face_clip(40.0, 90.0, 12);
  clip.frames.insert(clip.frames.begin() + 7, image::Image{});
  clip.frames.insert(clip.frames.begin(), image::Image{});
  clip.frames.insert(clip.frames.begin(), image::Image{});
  const ReceivedExtraction batch = ex.received_signal(clip);

  signal::Signal streamed;
  ReceivedHold hold;
  std::size_t hits = 0;
  for (const image::Image& frame : clip.frames) {
    if (ex.append_received(frame, hold, streamed)) ++hits;
  }
  EXPECT_EQ(streamed, batch.luminance);
  EXPECT_EQ(hits, clip.size() - batch.failed_frames);
  EXPECT_EQ(batch.failed_frames, 3u);
  EXPECT_TRUE(hold.seen);
  EXPECT_EQ(hold.last, streamed.back());
}

TEST(Extractor, AllFramesFailingGivesFlatZero) {
  const LuminanceExtractor ex;
  chat::VideoClip clip;
  clip.sample_rate_hz = 10.0;
  clip.frames.assign(10, image::Image{});
  const ReceivedExtraction r = ex.received_signal(clip);
  EXPECT_EQ(r.failed_frames, 10u);
  for (double v : r.luminance) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Extractor, RejectsClipAtAnotherRate) {
  DetectorConfig cfg;
  cfg.sample_rate_hz = 5.0;
  const LuminanceExtractor ex(cfg);
  chat::VideoClip clip;
  clip.sample_rate_hz = 10.0;
  clip.frames.assign(100, image::Image(2, 2, image::Pixel{80, 80, 80}));
  EXPECT_THROW((void)ex.transmitted_signal(clip), std::invalid_argument);
  EXPECT_THROW((void)ex.received_signal(clip), std::invalid_argument);
}

TEST(Extractor, EmptyClips) {
  const LuminanceExtractor ex;
  EXPECT_TRUE(ex.transmitted_signal(chat::VideoClip{}).empty());
  const auto r = ex.received_signal(chat::VideoClip{});
  EXPECT_TRUE(r.luminance.empty());
  EXPECT_EQ(r.failed_frames, 0u);
}

}  // namespace
}  // namespace lumichat::core
