// Scalar reference implementations of the SIMD kernel table.
//
// These are not naive loops: reductions emulate the canonical
// widen-then-reduce lane order documented in kernels.hpp with independent
// scalar accumulators, so the AVX2 path can match them bit for bit. This is
// also the portable fallback selected on CPUs without AVX2 (or with
// LUMICHAT_SIMD=scalar).
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "simd/kernels.hpp"
#include "simd/kernels_detail.hpp"

namespace lumichat::simd {
namespace {

double sum_scalar(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
  double a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double total = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double sum_sq_diff_scalar(const double* x, std::size_t n, double m) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
  double a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    const double d0 = x[i] - m;
    const double d1 = x[i + 1] - m;
    const double d2 = x[i + 2] - m;
    const double d3 = x[i + 3] - m;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  double total = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) {
    const double d = x[i] - m;
    total += d * d;
  }
  return total;
}

PearsonSums pearson_accumulate_scalar(const double* x, const double* y,
                                      std::size_t n, double mx, double my) {
  const std::size_t n4 = n - n % 4;
  double xy0 = 0.0, xy1 = 0.0, xy2 = 0.0, xy3 = 0.0;
  double xx0 = 0.0, xx1 = 0.0, xx2 = 0.0, xx3 = 0.0;
  double yy0 = 0.0, yy1 = 0.0, yy2 = 0.0, yy3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    const double dx0 = x[i] - mx;
    const double dx1 = x[i + 1] - mx;
    const double dx2 = x[i + 2] - mx;
    const double dx3 = x[i + 3] - mx;
    const double dy0 = y[i] - my;
    const double dy1 = y[i + 1] - my;
    const double dy2 = y[i + 2] - my;
    const double dy3 = y[i + 3] - my;
    xy0 += dx0 * dy0;
    xy1 += dx1 * dy1;
    xy2 += dx2 * dy2;
    xy3 += dx3 * dy3;
    xx0 += dx0 * dx0;
    xx1 += dx1 * dx1;
    xx2 += dx2 * dx2;
    xx3 += dx3 * dx3;
    yy0 += dy0 * dy0;
    yy1 += dy1 * dy1;
    yy2 += dy2 * dy2;
    yy3 += dy3 * dy3;
  }
  PearsonSums s;
  s.sxy = (xy0 + xy1) + (xy2 + xy3);
  s.sxx = (xx0 + xx1) + (xx2 + xx3);
  s.syy = (yy0 + yy1) + (yy2 + yy3);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    s.sxy += dx * dy;
    s.sxx += dx * dx;
    s.syy += dy * dy;
  }
  return s;
}

void convolve_same_scalar(const double* x, std::size_t n, const double* taps,
                          std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    y[i] = detail::convolve_one(x, sn, taps, sm, i);
  }
}

void correlate_same_scalar(const double* x, std::size_t n, const double* kern,
                           std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    y[i] = detail::correlate_one(x, sn, kern, sm, i);
  }
}

void delay_linear_scalar(const double* x, std::size_t n, double delay_samples,
                         double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::sample_at(x, n, static_cast<double>(i) - delay_samples);
  }
}

double luminance_row_sum_scalar(const double* rgb, std::size_t npix,
                                double luma_r, double luma_g, double luma_b) {
  const double w[3] = {luma_r, luma_g, luma_b};
  const std::size_t groups = npix / 4;
  double a[12] = {};
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t j = 0; j < 12; ++j) a[j] += p[j] * w[j % 3];
    p += 12;
  }
  double s[4];
  for (std::size_t j = 0; j < 4; ++j) s[j] = (a[j] + a[j + 4]) + a[j + 8];
  double total = (s[0] + s[1]) + (s[2] + s[3]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    total += detail::luminance_one(rgb + i * 3, luma_r, luma_g, luma_b);
  }
  return total;
}

void rgb_channel_sums_scalar(const double* rgb, std::size_t npix,
                             double* out_rgb) {
  const std::size_t groups = npix / 4;
  double a[12] = {};
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t j = 0; j < 12; ++j) a[j] += p[j];
    p += 12;
  }
  double r = (a[0] + a[3]) + (a[6] + a[9]);
  double gch = (a[1] + a[4]) + (a[7] + a[10]);
  double b = (a[2] + a[5]) + (a[8] + a[11]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    r += rgb[i * 3];
    gch += rgb[i * 3 + 1];
    b += rgb[i * 3 + 2];
  }
  out_rgb[0] = r;
  out_rgb[1] = gch;
  out_rgb[2] = b;
}

void squared_dist4_batch_scalar(const double* xs, const double* ys,
                                const double* zs, const double* ws,
                                std::size_t n, const double q[4],
                                double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::squared_dist4_one(xs, ys, zs, ws, i, q);
  }
}

// The row recurrence: two rolling rows of the (n+1)×(m+1) table.
double dtw_scalar(const double* x, std::size_t n, const double* y,
                  std::size_t m) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> rows(2 * (m + 1), kInf);
  double* prev = rows.data();
  double* curr = prev + (m + 1);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = kInf;
    for (std::size_t j = 1; j <= m; ++j) {
      curr[j] = detail::dtw_cell(x[i - 1], y[j - 1], prev[j], curr[j - 1],
                                 prev[j - 1]);
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

std::size_t polar_candidates_scalar(const std::uint64_t* u, std::size_t m,
                                   double* xs, double* ys, double* r2s) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < m; ++j) {
    count = detail::polar_candidate_one(u, j, xs, ys, r2s, count);
  }
  return count;
}

void camera_develop_scalar(const double* rgb, const double* z,
                           std::size_t npix, const CameraDevelop& p,
                           double* out) {
  for (std::size_t i = 0; i < npix * 3; i += 3) {
    for (std::size_t c = 0; c < 3; ++c) {
      out[i + c] = detail::camera_develop_one(rgb[i + c], p.wb[c], z[i + c], p);
    }
  }
}

void codec_blend_quantize_scalar(const double* v, const double* dc,
                                 const double* noise, std::size_t n,
                                 const CodecBlend& p, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::codec_blend_one(v[i], dc[i], noise[i], p);
  }
}

}  // namespace

const Kernels& scalar_kernels() {
  static constexpr Kernels table = {
      sum_scalar,
      sum_sq_diff_scalar,
      pearson_accumulate_scalar,
      convolve_same_scalar,
      correlate_same_scalar,
      delay_linear_scalar,
      luminance_row_sum_scalar,
      rgb_channel_sums_scalar,
      squared_dist4_batch_scalar,
      dtw_scalar,
      detail::crc32_slice8,
      detail::engine_words_scalar,
      polar_candidates_scalar,
      camera_develop_scalar,
      codec_blend_quantize_scalar,
      "scalar",
  };
  return table;
}

}  // namespace lumichat::simd
