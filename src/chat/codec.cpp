#include "chat/codec.hpp"

#include <algorithm>
#include <cmath>

#include "image/luminance.hpp"
#include "simd/dispatch.hpp"

namespace lumichat::chat {

VideoCodec::VideoCodec(CodecSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {}

void VideoCodec::set_compression(double compression) {
  spec_.compression = std::clamp(compression, 0.0, 1.0);
}

image::Image VideoCodec::transcode(const image::Image& frame) {
  if (frame.empty() || spec_.compression <= 0.0) return frame;
  const double c = std::clamp(spec_.compression, 0.0, 1.0);

  // Rate-control pressure: a big change in mean luminance (scene re-exposed)
  // momentarily starves the encoder and artifacts spike.
  const double mean = image::frame_luminance(frame);
  const double motion =
      prev_mean_ < 0.0 ? 0.0 : std::fabs(mean - prev_mean_) / 255.0;
  prev_mean_ = mean;
  const double stress = std::min(1.0, c + 2.0 * c * motion);

  // Effective block size / quantisation scale with compression level.
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             static_cast<double>(spec_.block_size) * stress)));
  const double q = spec_.quant_step * stress;

  simd::CodecBlend blend;
  blend.keep = 1.0 - 0.6 * stress;
  blend.mix = 0.6 * stress;
  blend.q = q;
  const double noise_sigma = spec_.motion_noise * stress;
  const simd::Kernels& kernels = simd::active();

  const std::size_t width = frame.width();
  const std::size_t height = frame.height();
  image::Image out(width, height);
  const auto* src = reinterpret_cast<const double*>(frame.data());
  auto* dst = reinterpret_cast<double*>(out.data());

  // One block row at a time: each block's DC term and noise are expanded
  // per value into a stack segment of up to kSegment pixels, and the
  // segment is blended and quantised row by row. Block noise is drawn in
  // raster block order, a stack chunk at a time.
  constexpr std::size_t kSegment = 128;
  double seg_dc[kSegment * 3];
  double seg_noise[kSegment * 3];
  double draws[kSegment];
  std::size_t next_draw = kSegment;
  std::size_t draws_left = ((width + block - 1) / block) *
                           ((height + block - 1) / block);
  for (std::size_t by = 0; by < height; by += block) {
    const std::size_t y1 = std::min(by + block, height);
    std::size_t seg_x = 0;
    std::size_t seg_len = 0;
    auto flush = [&] {
      for (std::size_t y = by; y < y1; ++y) {
        const std::size_t at = (y * width + seg_x) * 3;
        kernels.codec_blend_quantize(src + at, seg_dc, seg_noise, seg_len * 3,
                                     blend, dst + at);
      }
      seg_x += seg_len;
      seg_len = 0;
    };
    for (std::size_t bx = 0; bx < width; bx += block) {
      const std::size_t x1 = std::min(bx + block, width);
      // Block DC term.
      image::Pixel dc;
      for (std::size_t y = by; y < y1; ++y) {
        for (std::size_t x = bx; x < x1; ++x) dc += frame(x, y);
      }
      const double n = static_cast<double>((x1 - bx) * (y1 - by));
      dc = dc * (1.0 / n);

      double block_noise = 0.0;
      if (motion > 0.0) {
        if (next_draw == kSegment) {
          rng_.std_normal_fill(draws, std::min(kSegment, draws_left));
          next_draw = 0;
        }
        block_noise = 0.0 + noise_sigma * draws[next_draw++];
        --draws_left;
      }

      // Blend original detail toward the block DC (high-frequency loss),
      // then quantise.
      for (std::size_t x = bx; x < x1; ++x) {
        if (seg_len == kSegment) flush();
        double* d = seg_dc + seg_len * 3;
        double* e = seg_noise + seg_len * 3;
        d[0] = dc.r;
        d[1] = dc.g;
        d[2] = dc.b;
        e[0] = e[1] = e[2] = block_noise;
        ++seg_len;
      }
    }
    flush();
  }
  return out;
}

}  // namespace lumichat::chat
