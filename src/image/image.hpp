// RGB raster image with linear-light float channels.
//
// All light transport in the simulator happens in linear RGB (the Von Kries
// model of Eq. 1 is linear); conversion to the 8-bit quantised values a real
// camera emits happens only at the camera boundary (optics::CameraModel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lumichat::image {

/// One linear-light RGB sample. Channel values are non-negative and
/// open-ended (radiometric), not clamped display values.
struct Pixel {
  double r = 0.0;
  double g = 0.0;
  double b = 0.0;

  Pixel operator+(const Pixel& o) const { return {r + o.r, g + o.g, b + o.b}; }
  Pixel operator-(const Pixel& o) const { return {r - o.r, g - o.g, b - o.b}; }
  Pixel operator*(double s) const { return {r * s, g * s, b * s}; }
  /// Channel-wise product — the Von Kries diagonal model I_c = E_c * R_c.
  Pixel operator*(const Pixel& o) const { return {r * o.r, g * o.g, b * o.b}; }
  Pixel& operator+=(const Pixel& o) {
    r += o.r;
    g += o.g;
    b += o.b;
    return *this;
  }
  bool operator==(const Pixel&) const = default;
};

/// Axis-aligned rectangle in pixel coordinates (half-open on both axes).
struct Rect {
  std::size_t x = 0;
  std::size_t y = 0;
  std::size_t width = 0;
  std::size_t height = 0;

  [[nodiscard]] bool empty() const { return width == 0 || height == 0; }
};

/// Sub-pixel rectangle. Regions derived from (sub-pixel) facial landmarks
/// must be sampled with fractional coverage: snapping to whole pixels makes
/// the sampled luminance jump whenever landmark jitter crosses a pixel
/// boundary, which reads as fake luminance changes downstream.
struct RectF {
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;

  [[nodiscard]] bool empty() const { return width <= 0.0 || height <= 0.0; }
};

/// Largest frame edge the service accepts: the wire protocol rejects wider
/// or taller frames, and 8-bit ROI rows up to this width widen on the stack.
inline constexpr std::size_t kMaxFrameEdge = 512;

/// A dense RGB image. Row-major storage; (0,0) is the top-left corner.
class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, Pixel fill = {});

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] bool empty() const { return pixels_.empty(); }

  /// Bounds-checked access. \throws std::out_of_range.
  [[nodiscard]] Pixel& at(std::size_t x, std::size_t y);
  [[nodiscard]] const Pixel& at(std::size_t x, std::size_t y) const;

  /// Unchecked access for hot loops (renderer, luminance extraction).
  [[nodiscard]] Pixel& operator()(std::size_t x, std::size_t y) {
    return pixels_[y * width_ + x];
  }
  [[nodiscard]] const Pixel& operator()(std::size_t x, std::size_t y) const {
    return pixels_[y * width_ + x];
  }

  /// Crops `rect` (clipped against the image bounds) into a new image.
  [[nodiscard]] Image crop(const Rect& rect) const;

  /// Box-filter downscale to (new_width, new_height). Downscaling to 1x1
  /// implements the paper's "compress each frame into a single pixel".
  [[nodiscard]] Image downscale(std::size_t new_width,
                                std::size_t new_height) const;

  /// Mean pixel over the whole image (the 1x1 downscale value).
  [[nodiscard]] Pixel mean_pixel() const;

  /// Fills `rect` (clipped) with `value`.
  void fill_rect(const Rect& rect, Pixel value);

  [[nodiscard]] const std::vector<Pixel>& pixels() const { return pixels_; }

  /// Raw row-major pixel storage, for bulk I/O (wire serialization). Null
  /// for an empty image.
  [[nodiscard]] Pixel* data() { return pixels_.data(); }
  [[nodiscard]] const Pixel* data() const { return pixels_.data(); }

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<Pixel> pixels_;
};

/// An 8-bit RGB raster: row-major interleaved R,G,B bytes, the form a
/// camera emits and the wire's u8 planes carry. Widening each channel to
/// double gives exactly the Image of the same frame, so every reduction the
/// detector runs over it (image/luminance.hpp, face::LandmarkDetector)
/// returns the Image's bits.
class ImageU8 {
 public:
  ImageU8() = default;
  /// A zero-filled width x height raster.
  ImageU8(std::size_t width, std::size_t height);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }

  /// The 3 * width R,G,B bytes of row `y` (unchecked).
  [[nodiscard]] const std::uint8_t* row(std::size_t y) const {
    return bytes_.data() + y * width_ * 3;
  }

  /// Mean pixel over the whole image; bit-identical to the widened Image's
  /// mean_pixel() (its channel sums are integers, exact in any order).
  [[nodiscard]] Pixel mean_pixel() const;

  /// Raw interleaved storage (3 * width * height bytes), for bulk I/O.
  [[nodiscard]] std::uint8_t* data() { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace lumichat::image
