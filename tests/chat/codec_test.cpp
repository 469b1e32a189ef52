#include "chat/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "image/luminance.hpp"

namespace lumichat::chat {
namespace {

image::Image gradient_frame(std::size_t w = 32, std::size_t h = 24) {
  image::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const double v = 255.0 * static_cast<double>(x + y) /
                       static_cast<double>(w + h);
      img(x, y) = image::Pixel{v, v, v};
    }
  }
  return img;
}

TEST(Codec, ZeroCompressionIsIdentity) {
  VideoCodec codec(CodecSpec{.compression = 0.0}, 1);
  const image::Image in = gradient_frame();
  const image::Image out = codec.transcode(in);
  for (std::size_t i = 0; i < in.pixels().size(); ++i) {
    EXPECT_EQ(out.pixels()[i], in.pixels()[i]);
  }
}

TEST(Codec, EmptyFramePassesThrough) {
  VideoCodec codec(CodecSpec{}, 1);
  EXPECT_TRUE(codec.transcode(image::Image{}).empty());
}

TEST(Codec, PreservesFrameMeanLuminance) {
  // The property the defense depends on: compression may mangle detail but
  // must roughly preserve mean luminance.
  VideoCodec codec(CodecSpec{.compression = 0.5}, 2);
  const image::Image in = gradient_frame(48, 36);
  const image::Image out = codec.transcode(in);
  EXPECT_NEAR(image::frame_luminance(out), image::frame_luminance(in), 4.0);
}

TEST(Codec, StrongerCompressionLosesMoreDetail) {
  const image::Image in = gradient_frame(48, 36);
  auto detail_loss = [&](double compression) {
    VideoCodec codec(CodecSpec{.compression = compression}, 3);
    const image::Image out = codec.transcode(in);
    double acc = 0.0;
    for (std::size_t i = 0; i < in.pixels().size(); ++i) {
      acc += std::abs(out.pixels()[i].g - in.pixels()[i].g);
    }
    return acc / static_cast<double>(in.pixels().size());
  };
  EXPECT_LT(detail_loss(0.1), detail_loss(0.8));
}

TEST(Codec, OutputStaysInEightBitRange) {
  VideoCodec codec(CodecSpec{.compression = 1.0}, 4);
  const image::Image out = codec.transcode(gradient_frame());
  for (const auto& p : out.pixels()) {
    EXPECT_GE(p.r, 0.0);
    EXPECT_LE(p.r, 255.0);
  }
}

TEST(Codec, MotionIncreasesArtifacts) {
  // Rate-control: a large frame-to-frame change degrades the next frame
  // more than a static scene.
  const image::Image bright(32, 24, image::Pixel{200, 200, 200});
  const image::Image dark(32, 24, image::Pixel{30, 30, 30});
  const image::Image detail = gradient_frame();

  VideoCodec static_codec(CodecSpec{.compression = 0.4}, 5);
  (void)static_codec.transcode(detail);
  const image::Image calm = static_codec.transcode(detail);

  VideoCodec moving_codec(CodecSpec{.compression = 0.4}, 5);
  (void)moving_codec.transcode(bright);
  (void)moving_codec.transcode(dark);  // big luminance jump
  const image::Image stressed = moving_codec.transcode(detail);

  double calm_err = 0.0;
  double stressed_err = 0.0;
  for (std::size_t i = 0; i < detail.pixels().size(); ++i) {
    calm_err += std::abs(calm.pixels()[i].g - detail.pixels()[i].g);
    stressed_err += std::abs(stressed.pixels()[i].g - detail.pixels()[i].g);
  }
  EXPECT_GT(stressed_err, calm_err);
}

TEST(Codec, DeterministicForSeed) {
  VideoCodec a(CodecSpec{.compression = 0.5}, 42);
  VideoCodec b(CodecSpec{.compression = 0.5}, 42);
  const image::Image in = gradient_frame();
  const image::Image fa = a.transcode(in);
  const image::Image fb = b.transcode(in);
  for (std::size_t i = 0; i < fa.pixels().size(); ++i) {
    EXPECT_EQ(fa.pixels()[i], fb.pixels()[i]);
  }
}

// The per-pixel transcode loop that the block-row kernel path replaced,
// with its block noise drawn from the library distribution, one draw per
// block in raster block order.
struct ReferenceCodec {
  ReferenceCodec(CodecSpec s, std::uint64_t seed) : spec(s), engine(seed) {}

  image::Image transcode(const image::Image& frame) {
    const double c = std::clamp(spec.compression, 0.0, 1.0);
    const double mean = image::frame_luminance(frame);
    const double motion =
        prev_mean < 0.0 ? 0.0 : std::fabs(mean - prev_mean) / 255.0;
    prev_mean = mean;
    const double stress = std::min(1.0, c + 2.0 * c * motion);
    const auto block = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               static_cast<double>(spec.block_size) * stress)));
    const double q = spec.quant_step * stress;
    image::Image out(frame.width(), frame.height());
    for (std::size_t by = 0; by < frame.height(); by += block) {
      for (std::size_t bx = 0; bx < frame.width(); bx += block) {
        const std::size_t x1 = std::min(bx + block, frame.width());
        const std::size_t y1 = std::min(by + block, frame.height());
        image::Pixel dc;
        for (std::size_t y = by; y < y1; ++y) {
          for (std::size_t x = bx; x < x1; ++x) dc += frame(x, y);
        }
        const double n = static_cast<double>((x1 - bx) * (y1 - by));
        dc = dc * (1.0 / n);
        const double block_noise =
            motion > 0.0 ? 0.0 + spec.motion_noise * stress * normal(engine)
                         : 0.0;
        for (std::size_t y = by; y < y1; ++y) {
          for (std::size_t x = bx; x < x1; ++x) {
            auto develop = [&](double v, double dcv) {
              double mixed = v * (1.0 - 0.6 * stress) + dcv * (0.6 * stress);
              mixed += block_noise;
              if (q > 0.5) mixed = std::round(mixed / q) * q;
              return std::clamp(mixed, 0.0, 255.0);
            };
            const image::Pixel& p = frame(x, y);
            out(x, y) = image::Pixel{develop(p.r, dc.r), develop(p.g, dc.g),
                                     develop(p.b, dc.b)};
          }
        }
      }
    }
    return out;
  }

  CodecSpec spec;
  std::mt19937_64 engine;
  std::normal_distribution<double> normal{0.0, 1.0};
  double prev_mean = -1.0;
};

// Frames wider than the transcoder's 128-pixel stack segment, with block
// sizes that divide neither the segment nor the frame, so segments are
// flushed in the middle of a block and the last block row and column are
// partial. Brightness alternates from frame to frame: every frame after the
// first has motion, so block noise is drawn, across more than one batch of
// the normal fill and with the saved second value carried between frames.
TEST(Codec, WideFramesMatchPerPixelLoopBitwise) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "the normal draws mirror libstdc++'s normal_distribution";
#endif
  const std::size_t width = 301;
  const std::size_t height = 37;
  for (const double compression : {1.0, 0.35}) {
    for (const std::size_t block_size : {7u, 9u}) {
      const CodecSpec spec{.compression = compression,
                           .block_size = block_size};
      VideoCodec codec(spec, 17 + block_size);
      ReferenceCodec ref(spec, 17 + block_size);
      for (std::size_t f = 0; f < 6; ++f) {
        image::Image in(width, height);
        const double lift =
            (f % 2 == 0) ? 0.0 : 40.0 + 10.0 * static_cast<double>(f);
        for (std::size_t y = 0; y < height; ++y) {
          for (std::size_t x = 0; x < width; ++x) {
            const double t =
                static_cast<double>((x * 31 + y * 17 + f) % 97) / 97.0;
            in(x, y) = image::Pixel{lift + 200.0 * t, lift + 150.0 * t + 3.5,
                                    lift + 260.0 * t - 2.5};
          }
        }
        const image::Image got = codec.transcode(in);
        const image::Image want = ref.transcode(in);
        for (std::size_t i = 0; i < got.pixels().size(); ++i) {
          const image::Pixel& g = got.pixels()[i];
          const image::Pixel& w = want.pixels()[i];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.r),
                    std::bit_cast<std::uint64_t>(w.r))
              << "c=" << compression << " block=" << block_size
              << " frame " << f << " pixel " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.g),
                    std::bit_cast<std::uint64_t>(w.g));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.b),
                    std::bit_cast<std::uint64_t>(w.b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace lumichat::chat
