#include "image/image.hpp"

#include <algorithm>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace lumichat::image {

static_assert(sizeof(Pixel) == 3 * sizeof(double),
              "Pixel must be three tightly packed doubles for the SIMD "
              "channel-sum kernel to reinterpret pixel storage");

namespace {

/// The mean pixel from its channel sums over `n` pixels.
Pixel mean_of_sums(const double sums[3], std::size_t n) {
  const double inv = 1.0 / static_cast<double>(n);
  return {sums[0] * inv, sums[1] * inv, sums[2] * inv};
}

}  // namespace

Image::Image(std::size_t width, std::size_t height, Pixel fill)
    : width_(width), height_(height), pixels_(width * height, fill) {}

Pixel& Image::at(std::size_t x, std::size_t y) {
  if (x >= width_ || y >= height_) {
    throw std::out_of_range("Image::at: coordinates out of range");
  }
  return pixels_[y * width_ + x];
}

const Pixel& Image::at(std::size_t x, std::size_t y) const {
  if (x >= width_ || y >= height_) {
    throw std::out_of_range("Image::at: coordinates out of range");
  }
  return pixels_[y * width_ + x];
}

Image Image::crop(const Rect& rect) const {
  const std::size_t x0 = std::min(rect.x, width_);
  const std::size_t y0 = std::min(rect.y, height_);
  const std::size_t w = std::min(rect.width, width_ - x0);
  const std::size_t h = std::min(rect.height, height_ - y0);
  Image out(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      out(x, y) = (*this)(x0 + x, y0 + y);
    }
  }
  return out;
}

Image Image::downscale(std::size_t new_width, std::size_t new_height) const {
  if (new_width == 0 || new_height == 0) {
    throw std::invalid_argument("Image::downscale: zero target size");
  }
  if (empty()) return Image(new_width, new_height);
  Image out(new_width, new_height);
  for (std::size_t oy = 0; oy < new_height; ++oy) {
    // Source band covered by this output row/column (box filter).
    const std::size_t y0 = oy * height_ / new_height;
    std::size_t y1 = (oy + 1) * height_ / new_height;
    y1 = std::max(y1, y0 + 1);
    for (std::size_t ox = 0; ox < new_width; ++ox) {
      const std::size_t x0 = ox * width_ / new_width;
      std::size_t x1 = (ox + 1) * width_ / new_width;
      x1 = std::max(x1, x0 + 1);
      Pixel acc;
      for (std::size_t y = y0; y < y1 && y < height_; ++y) {
        for (std::size_t x = x0; x < x1 && x < width_; ++x) {
          acc += (*this)(x, y);
        }
      }
      const double n = static_cast<double>((std::min(y1, height_) - y0) *
                                           (std::min(x1, width_) - x0));
      out(ox, oy) = acc * (1.0 / n);
    }
  }
  return out;
}

Pixel Image::mean_pixel() const {
  if (empty()) return {};
  double sums[3];
  simd::active().rgb_channel_sums(
      reinterpret_cast<const double*>(pixels_.data()), pixels_.size(), sums);
  return mean_of_sums(sums, pixels_.size());
}

void Image::fill_rect(const Rect& rect, Pixel value) {
  const std::size_t x0 = std::min(rect.x, width_);
  const std::size_t y0 = std::min(rect.y, height_);
  const std::size_t x1 = std::min(rect.x + rect.width, width_);
  const std::size_t y1 = std::min(rect.y + rect.height, height_);
  for (std::size_t y = y0; y < y1; ++y) {
    for (std::size_t x = x0; x < x1; ++x) (*this)(x, y) = value;
  }
}

ImageU8::ImageU8(std::size_t width, std::size_t height)
    : width_(width), height_(height), bytes_(width * height * 3) {}

Pixel ImageU8::mean_pixel() const {
  if (empty()) return {};
  // Lane k of a 48-byte (16-pixel) block sums channel k % 3, in u16 runs
  // of at most 257 blocks (257 * 255 < 2^16) so the compiler can widen
  // and add a vector of bytes at a time. The channel sums are integers
  // below 2^53, so they equal the f64 kernel's sums over the widened Image
  // exactly, whatever order either adds in.
  constexpr std::size_t kBlock = 48;
  constexpr std::size_t kRunBlocks = 257;
  const std::uint8_t* p = bytes_.data();
  const std::size_t n = bytes_.size();
  std::uint64_t channel[3] = {};
  std::size_t i = 0;
  while (i + kBlock <= n) {
    std::uint16_t lanes[kBlock] = {};
    const std::size_t blocks = std::min((n - i) / kBlock, kRunBlocks);
    for (std::size_t b = 0; b < blocks; ++b, i += kBlock) {
      for (std::size_t k = 0; k < kBlock; ++k) lanes[k] += p[i + k];
    }
    for (std::size_t k = 0; k < kBlock; ++k) channel[k % 3] += lanes[k];
  }
  for (; i < n; ++i) channel[i % 3] += p[i];
  const double sums[3] = {static_cast<double>(channel[0]),
                          static_cast<double>(channel[1]),
                          static_cast<double>(channel[2])};
  return mean_of_sums(sums, width_ * height_);
}

}  // namespace lumichat::image
