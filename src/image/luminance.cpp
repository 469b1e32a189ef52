#include "image/luminance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "simd/dispatch.hpp"

namespace lumichat::image {
namespace {

// The row kernels view a run of pixels as interleaved r,g,b doubles.
static_assert(sizeof(Pixel) == 3 * sizeof(double),
              "Pixel must be three tightly packed doubles for the SIMD row "
              "kernels to reinterpret pixel rows");

const double* row_ptr(const Image& frame, std::size_t x, std::size_t y) {
  return reinterpret_cast<const double*>(&frame(x, y));
}

/// Widest ROI row an 8-bit frame widens on the stack: the largest frame
/// edge the service accepts. A wider row widens into a heap buffer instead.
constexpr std::size_t kStackRowPixels = kMaxFrameEdge;

/// Area-weighted ROI mean over any frame whose pixel rows `rows` can hand
/// out as interleaved r,g,b doubles: `rows(y, x0, x1)` returns pixels
/// [x0, x1) of row y, with element 0 at pixel x0.
template <class Rows>
double roi_luminance_rows(std::size_t width, std::size_t height,
                          const RectF& roi, const simd::Kernels& kern,
                          Rows&& rows) {
  const double x0 = std::max(roi.x, 0.0);
  const double y0 = std::max(roi.y, 0.0);
  const double x1 = std::min(roi.x + roi.width, static_cast<double>(width));
  const double y1 = std::min(roi.y + roi.height, static_cast<double>(height));
  if (x0 >= x1 || y0 >= y1) return 0.0;

  const auto ix0 = static_cast<std::size_t>(x0);
  const auto iy0 = static_cast<std::size_t>(y0);
  const auto ix1 = std::min(static_cast<std::size_t>(std::ceil(x1)), width);
  const auto iy1 = static_cast<std::size_t>(std::ceil(y1));

  // Columns fully inside [x0, x1) have x-coverage exactly 1.0 and form one
  // contiguous run per row, which the dispatched row kernel reduces; only
  // the (at most two) fractional boundary columns need per-pixel weights.
  // `ib` is clamped up to `ia` so that a sub-pixel-wide ROI degenerates to
  // boundary columns only.
  const auto ia = static_cast<std::size_t>(std::ceil(x0));
  const auto ib = std::max(ia, static_cast<std::size_t>(std::floor(x1)));

  const auto pixel = [&](const double* row, std::size_t x) {
    const double* c = row + 3 * (x - ix0);
    return Pixel{c[0], c[1], c[2]};
  };
  double acc = 0.0;
  double area = 0.0;
  for (std::size_t y = iy0; y < iy1 && y < height; ++y) {
    const double cy = std::min(y1, static_cast<double>(y + 1)) -
                      std::max(y0, static_cast<double>(y));
    const double* row = rows(y, ix0, ix1);
    double row_acc = 0.0;
    double row_cov = 0.0;  // x-coverage of this row (Σ cx)
    for (std::size_t x = ix0; x < ia && x < width; ++x) {
      const double cx = std::min(x1, static_cast<double>(x + 1)) -
                        std::max(x0, static_cast<double>(x));
      row_acc += cx * luminance(pixel(row, x));
      row_cov += cx;
    }
    if (ib > ia && ia < width) {
      const std::size_t run = std::min(ib, width) - ia;
      row_acc += kern.luminance_row_sum(row + 3 * (ia - ix0), run, kLumaR,
                                        kLumaG, kLumaB);
      row_cov += static_cast<double>(run);
    }
    for (std::size_t x = ib; x < ix1; ++x) {
      const double cx = std::min(x1, static_cast<double>(x + 1)) -
                        std::max(x0, static_cast<double>(x));
      row_acc += cx * luminance(pixel(row, x));
      row_cov += cx;
    }
    acc += cy * row_acc;
    area += cy * row_cov;
  }
  return area > 0.0 ? acc / area : 0.0;
}

}  // namespace

double luminance(const Pixel& p) {
  return kLumaR * p.r + kLumaG * p.g + kLumaB * p.b;
}

double frame_luminance(const Image& frame) {
  return luminance(frame.mean_pixel());
}

double frame_luminance(const ImageU8& frame) {
  return luminance(frame.mean_pixel());
}

double roi_luminance(const Image& frame, const RectF& roi) {
  return roi_luminance(frame, roi, simd::active());
}

double roi_luminance(const Image& frame, const RectF& roi,
                     const simd::Kernels& kern) {
  return roi_luminance_rows(
      frame.width(), frame.height(), roi, kern,
      [&](std::size_t y, std::size_t x0, std::size_t) {
        return row_ptr(frame, x0, y);
      });
}

double roi_luminance(const ImageU8& frame, const RectF& roi) {
  double stack_row[3 * kStackRowPixels];
  std::vector<double> heap_row;
  return roi_luminance_rows(
      frame.width(), frame.height(), roi, simd::active(),
      [&](std::size_t y, std::size_t x0, std::size_t x1) {
        const std::size_t n = 3 * (x1 - x0);
        double* out = stack_row;
        if (x1 - x0 > kStackRowPixels) {
          heap_row.resize(n);
          out = heap_row.data();
        }
        const std::uint8_t* in = frame.row(y) + 3 * x0;
        for (std::size_t i = 0; i < n; ++i) out[i] = in[i];
        return static_cast<const double*>(out);
      });
}

double roi_luminance(const Image& frame, const Rect& roi) {
  const std::size_t x0 = std::min(roi.x, frame.width());
  const std::size_t y0 = std::min(roi.y, frame.height());
  const std::size_t x1 = std::min(roi.x + roi.width, frame.width());
  const std::size_t y1 = std::min(roi.y + roi.height, frame.height());
  if (x0 >= x1 || y0 >= y1) return 0.0;
  const simd::Kernels& kern = simd::active();
  double acc = 0.0;
  for (std::size_t y = y0; y < y1; ++y) {
    acc += kern.luminance_row_sum(row_ptr(frame, x0, y), x1 - x0, kLumaR,
                                  kLumaG, kLumaB);
  }
  return acc / static_cast<double>((x1 - x0) * (y1 - y0));
}

}  // namespace lumichat::image
