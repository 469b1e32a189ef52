#include "image/luminance.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "u8_frames.hpp"

namespace lumichat::image {
namespace {

TEST(Luminance, Rec709Weights) {
  EXPECT_NEAR(luminance(Pixel{1, 0, 0}), 0.2126, 1e-12);
  EXPECT_NEAR(luminance(Pixel{0, 1, 0}), 0.7152, 1e-12);
  EXPECT_NEAR(luminance(Pixel{0, 0, 1}), 0.0722, 1e-12);
  // Weights sum to 1: a grey pixel's luminance equals its level.
  EXPECT_NEAR(luminance(Pixel{0.5, 0.5, 0.5}), 0.5, 1e-12);
}

TEST(Luminance, LinearInIntensity) {
  const Pixel p{0.3, 0.5, 0.2};
  EXPECT_NEAR(luminance(p * 2.0), 2.0 * luminance(p), 1e-12);
}

TEST(FrameLuminance, EqualsMeanPixelLuminance) {
  Image img(2, 1);
  img(0, 0) = Pixel{1, 0, 0};
  img(1, 0) = Pixel{0, 1, 0};
  EXPECT_NEAR(frame_luminance(img), (0.2126 + 0.7152) / 2.0, 1e-12);
}

TEST(RoiLuminance, IntegerRoi) {
  Image img(4, 4);
  img.fill_rect(Rect{0, 0, 4, 4}, Pixel{1, 1, 1});
  img.fill_rect(Rect{1, 1, 2, 2}, Pixel{3, 3, 3});
  EXPECT_NEAR(roi_luminance(img, Rect{1, 1, 2, 2}), 3.0, 1e-12);
  EXPECT_NEAR(roi_luminance(img, Rect{0, 0, 1, 1}), 1.0, 1e-12);
}

TEST(RoiLuminance, ClipsAndHandlesEmpty) {
  Image img(4, 4, Pixel{2, 2, 2});
  EXPECT_NEAR(roi_luminance(img, Rect{3, 3, 10, 10}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(roi_luminance(img, Rect{5, 5, 2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(roi_luminance(img, Rect{0, 0, 0, 0}), 0.0);
}

TEST(RoiLuminanceSubpixel, FullPixelAgreesWithInteger) {
  Image img(4, 4);
  img.fill_rect(Rect{0, 0, 4, 4}, Pixel{1, 1, 1});
  img.fill_rect(Rect{2, 0, 2, 4}, Pixel{5, 5, 5});
  const double integer = roi_luminance(img, Rect{1, 1, 2, 2});
  const double subpixel = roi_luminance(img, RectF{1.0, 1.0, 2.0, 2.0});
  EXPECT_NEAR(integer, subpixel, 1e-12);
}

TEST(RoiLuminanceSubpixel, HalfCoverageBlends) {
  Image img(2, 1);
  img(0, 0) = Pixel{0, 0, 0};
  img(1, 0) = Pixel{4, 4, 4};
  // A 1x1 region centred on the pixel boundary: half dark, half bright.
  EXPECT_NEAR(roi_luminance(img, RectF{0.5, 0.0, 1.0, 1.0}), 2.0, 1e-12);
}

TEST(RoiLuminanceSubpixel, VariesContinuouslyWithPosition) {
  // Sliding the region by a fraction of a pixel moves the result a
  // proportional fraction — the property that kills landmark-jitter noise.
  Image img(3, 1);
  img(0, 0) = Pixel{0, 0, 0};
  img(1, 0) = Pixel{0, 0, 0};
  img(2, 0) = Pixel{10, 10, 10};
  const double at0 = roi_luminance(img, RectF{0.0, 0.0, 2.0, 1.0});
  const double at025 = roi_luminance(img, RectF{0.25, 0.0, 2.0, 1.0});
  const double at05 = roi_luminance(img, RectF{0.5, 0.0, 2.0, 1.0});
  EXPECT_NEAR(at0, 0.0, 1e-12);
  EXPECT_NEAR(at025, 10.0 * 0.25 / 2.0, 1e-12);
  EXPECT_NEAR(at05, 10.0 * 0.5 / 2.0, 1e-12);
}

TEST(RoiLuminanceSubpixel, OutsideFrameIsZero) {
  const Image img(2, 2, Pixel{1, 1, 1});
  EXPECT_DOUBLE_EQ(roi_luminance(img, RectF{5.0, 5.0, 1.0, 1.0}), 0.0);
  // [-3, -1) does not intersect the frame at all.
  EXPECT_DOUBLE_EQ(roi_luminance(img, RectF{-3.0, 0.0, 2.0, 1.0}), 0.0);
  // Partially overlapping region averages only the covered pixels.
  EXPECT_DOUBLE_EQ(roi_luminance(img, RectF{-1.0, 0.0, 2.0, 1.0}), 1.0);
}

// --- 8-bit frames: the widened Image's bits ------------------------------

using testutil::random_u8;
using testutil::widen;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(FrameLuminanceU8, MatchesWidenedFrameBitForBit) {
  common::Rng rng(2501);
  // Sizes below, at and past one 16-pixel block, with and without a tail.
  const std::size_t sizes[][2] = {{1, 1},  {2, 3},   {5, 3},  {16, 1},
                                  {17, 3}, {31, 7},  {96, 72}, {33, 65}};
  for (const auto& wh : sizes) {
    for (int trial = 0; trial < 8; ++trial) {
      const ImageU8 u8 = random_u8(wh[0], wh[1], rng);
      EXPECT_EQ(bits(frame_luminance(u8)), bits(frame_luminance(widen(u8))))
          << wh[0] << "x" << wh[1] << " trial " << trial;
    }
  }
  ImageU8 white(96, 72);
  for (std::size_t i = 0; i < white.size_bytes(); ++i) white.data()[i] = 255;
  EXPECT_EQ(bits(frame_luminance(white)), bits(frame_luminance(widen(white))));
  EXPECT_EQ(bits(frame_luminance(ImageU8(96, 72))), bits(0.0));
  EXPECT_EQ(bits(frame_luminance(ImageU8{})), bits(frame_luminance(Image{})));
}

TEST(RoiLuminanceU8, MatchesWidenedFrameBitForBit) {
  common::Rng rng(2502);
  const ImageU8 u8 = random_u8(96, 72, rng);
  const Image f64 = widen(u8);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<RectF> rois = {
      {10.0, 20.0, 6.0, 4.0},      // whole pixels
      {10.25, 20.5, 6.5, 4.75},    // sub-pixel edges
      {40.3, 30.6, 0.2, 0.3},      // inside one pixel
      {40.7, 30.6, 0.6, 0.9},      // straddling two columns, narrower than 1
      {-3.5, -2.25, 8.0, 6.0},     // partly outside, top-left
      {92.5, 69.25, 10.0, 10.0},   // partly outside, bottom-right
      {-1.0, 10.0, 98.0, 1.5},     // wider than the frame
      {0.0, 0.0, 96.0, 72.0},      // the whole frame
      {100.0, 10.0, 5.0, 5.0},     // wholly outside, right
      {-10.0, 10.0, 5.0, 5.0},     // wholly outside, left
      {10.0, -9.0, 5.0, 4.0},      // wholly outside, above
      {10.0, 20.0, 0.0, 4.0},      // zero width
      {10.0, 20.0, 4.0, 0.0},      // zero height
      {10.0, 20.0, -2.0, 4.0},     // negative width
      {10.0, 20.0, inf, 3.0},      // unbounded to the right
  };
  for (int i = 0; i < 200; ++i) {
    rois.push_back(RectF{rng.uniform(-8.0, 100.0), rng.uniform(-8.0, 76.0),
                         rng.uniform(0.0, 3.0) * rng.uniform(0.0, 10.0),
                         rng.uniform(0.0, 3.0) * rng.uniform(0.0, 10.0)});
  }
  for (const RectF& roi : rois) {
    EXPECT_EQ(bits(roi_luminance(u8, roi)), bits(roi_luminance(f64, roi)))
        << "roi " << roi.x << "," << roi.y << " " << roi.width << "x"
        << roi.height;
  }
}

TEST(RoiLuminanceU8, RowsWiderThanTheStackBufferMatch) {
  // ROI rows wider than the largest frame edge widen on the heap instead
  // of the stack; the last ROI fits the stack buffer exactly.
  const std::size_t w = kMaxFrameEdge + 88;
  const double wd = static_cast<double>(w);
  common::Rng rng(2503);
  const ImageU8 u8 = random_u8(w, 3, rng);
  const Image f64 = widen(u8);
  for (const RectF& roi :
       {RectF{0.0, 0.0, wd, 3.0}, RectF{0.5, 0.25, wd - 1.0, 2.5},
        RectF{2.0, 1.0, static_cast<double>(kMaxFrameEdge), 1.0}}) {
    EXPECT_EQ(bits(roi_luminance(u8, roi)), bits(roi_luminance(f64, roi)));
  }
}

}  // namespace
}  // namespace lumichat::image
