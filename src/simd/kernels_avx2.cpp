// AVX2 implementations of the SIMD kernel table.
//
// Per-output kernels compute 4 outputs per instruction with each output's
// IEEE operation sequence unchanged from the scalar path; reductions use the
// canonical widen-then-reduce lane order of kernels.hpp (vector lanes ARE
// the scalar path's accumulators). Only mul/add intrinsics are used — no
// FMA — and the TU is compiled with -ffp-contract=off, so results are bit
// for bit identical to kernels_scalar.cpp (property-gated in tests/simd/).
//
// crc32_update folds with PCLMULQDQ (carry-less multiply) instead: CRC is
// exact GF(2) arithmetic, so the folded result equals the scalar table's.
//
// This TU is compiled with -mavx2 -mpclmul and is only entered when
// dispatch.cpp selected the AVX2 table, which requires runtime CPUID support
// for both extensions.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/kernels_detail.hpp"

#if defined(LUMICHAT_SIMD_HAS_AVX2)
#include <immintrin.h>

namespace lumichat::simd {
namespace {

/// Reduces [l0 l1 l2 l3] to (l0 + l1) + (l2 + l3) — the canonical lane
/// reduction, done in scalar doubles so the order is explicit.
double reduce_lanes(__m256d v) {
  alignas(32) double l[4];
  _mm256_store_pd(l, v);
  return (l[0] + l[1]) + (l[2] + l[3]);
}

double sum_avx2(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = reduce_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double sum_sq_diff_avx2(const double* x, std::size_t n, double m) {
  const std::size_t n4 = n - n % 4;
  const __m256d vm = _mm256_set1_pd(m);
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), vm);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = reduce_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) {
    const double d = x[i] - m;
    total += d * d;
  }
  return total;
}

PearsonSums pearson_accumulate_avx2(const double* x, const double* y,
                                    std::size_t n, double mx, double my) {
  const std::size_t n4 = n - n % 4;
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  __m256d axy = _mm256_setzero_pd();
  __m256d axx = _mm256_setzero_pd();
  __m256d ayy = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(y + i), vmy);
    axy = _mm256_add_pd(axy, _mm256_mul_pd(dx, dy));
    axx = _mm256_add_pd(axx, _mm256_mul_pd(dx, dx));
    ayy = _mm256_add_pd(ayy, _mm256_mul_pd(dy, dy));
  }
  PearsonSums s;
  s.sxy = reduce_lanes(axy);
  s.sxx = reduce_lanes(axx);
  s.syy = reduce_lanes(ayy);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    s.sxy += dx * dy;
    s.sxx += dx * dx;
    s.syy += dy * dy;
  }
  return s;
}

void convolve_same_avx2(const double* x, std::size_t n, const double* taps,
                        std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  const std::ptrdiff_t half = sm / 2;
  // Outputs whose every read i + half - k stays inside [0, n-1]: no clamp
  // needed, reads for 4 consecutive outputs are 4 consecutive samples.
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, sm - 1 - half);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(sn - 1, sn - 1 - half);
  std::ptrdiff_t i = 0;
  for (; i < std::min(lo, sn); ++i) {
    y[i] = detail::convolve_one(x, sn, taps, sm, i);
  }
  for (; i + 3 <= hi; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::ptrdiff_t k = 0; k < sm; ++k) {
      const __m256d t = _mm256_set1_pd(taps[k]);
      const __m256d xv = _mm256_loadu_pd(x + (i + half - k));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, xv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < sn; ++i) {
    y[i] = detail::convolve_one(x, sn, taps, sm, i);
  }
}

void correlate_same_avx2(const double* x, std::size_t n, const double* kern,
                         std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  const std::ptrdiff_t half = sm / 2;
  // Clamp-free outputs: i - half >= 0 and i - half + m - 1 <= n - 1.
  const std::ptrdiff_t lo = half;
  const std::ptrdiff_t hi = sn - sm + half;
  std::ptrdiff_t i = 0;
  for (; i < std::min(lo, sn); ++i) {
    y[i] = detail::correlate_one(x, sn, kern, sm, i);
  }
  for (; i + 3 <= hi; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::ptrdiff_t k = 0; k < sm; ++k) {
      const __m256d t = _mm256_set1_pd(kern[k]);
      const __m256d xv = _mm256_loadu_pd(x + (i - half + k));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, xv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < sn; ++i) {
    y[i] = detail::correlate_one(x, sn, kern, sm, i);
  }
}

/// Body of delay_linear: interpolate x at positions held in `pos`
/// (already clamped to [0, n-1]) — per lane the exact op sequence of
/// detail::sample_at after its clamp.
__m256d gather_lerp(const double* x, std::ptrdiff_t n, __m256d pos) {
  const __m256d tf = _mm256_floor_pd(pos);
  const __m128i i0 = _mm256_cvttpd_epi32(tf);
  const __m128i vn1 = _mm_set1_epi32(static_cast<int>(n - 1));
  const __m128i i1 = _mm_min_epi32(_mm_add_epi32(i0, _mm_set1_epi32(1)), vn1);
  // Masked gather with an explicit zero source: same instruction as the
  // plain form with an all-ones mask, but avoids GCC's
  // -Wmaybe-uninitialized on _mm256_undefined_pd().
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d x0 =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, i0, all, 8);
  const __m256d x1 =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, i1, all, 8);
  const __m256d frac = _mm256_sub_pd(pos, tf);
  const __m256d one = _mm256_set1_pd(1.0);
  return _mm256_add_pd(_mm256_mul_pd(x0, _mm256_sub_pd(one, frac)),
                       _mm256_mul_pd(x1, frac));
}

void delay_linear_avx2(const double* x, std::size_t n, double delay_samples,
                       double* out) {
  const std::size_t n4 = n - n % 4;
  const __m256d vdelay = _mm256_set1_pd(delay_samples);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vmax = _mm256_set1_pd(static_cast<double>(n - 1));
  const __m256d ramp = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d vi =
        _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i)), ramp);
    __m256d pos = _mm256_sub_pd(vi, vdelay);
    pos = _mm256_min_pd(_mm256_max_pd(pos, vzero), vmax);
    _mm256_storeu_pd(out + i,
                     gather_lerp(x, static_cast<std::ptrdiff_t>(n), pos));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = detail::sample_at(x, n, static_cast<double>(i) - delay_samples);
  }
}

double luminance_row_sum_avx2(const double* rgb, std::size_t npix,
                              double luma_r, double luma_g, double luma_b) {
  // 4 pixels = 12 interleaved doubles = 3 registers; the channel weight
  // pattern repeats every 12 lanes, so no deinterleave shuffles are needed.
  const __m256d w0 = _mm256_setr_pd(luma_r, luma_g, luma_b, luma_r);
  const __m256d w1 = _mm256_setr_pd(luma_g, luma_b, luma_r, luma_g);
  const __m256d w2 = _mm256_setr_pd(luma_b, luma_r, luma_g, luma_b);
  const std::size_t groups = npix / 4;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(p), w0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(p + 4), w1));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(p + 8), w2));
    p += 12;
  }
  alignas(32) double a[12];
  _mm256_store_pd(a, acc0);
  _mm256_store_pd(a + 4, acc1);
  _mm256_store_pd(a + 8, acc2);
  double s[4];
  for (std::size_t j = 0; j < 4; ++j) s[j] = (a[j] + a[j + 4]) + a[j + 8];
  double total = (s[0] + s[1]) + (s[2] + s[3]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    total += detail::luminance_one(rgb + i * 3, luma_r, luma_g, luma_b);
  }
  return total;
}

void rgb_channel_sums_avx2(const double* rgb, std::size_t npix,
                           double* out_rgb) {
  const std::size_t groups = npix / 4;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(p + 8));
    p += 12;
  }
  alignas(32) double a[12];
  _mm256_store_pd(a, acc0);
  _mm256_store_pd(a + 4, acc1);
  _mm256_store_pd(a + 8, acc2);
  double r = (a[0] + a[3]) + (a[6] + a[9]);
  double g = (a[1] + a[4]) + (a[7] + a[10]);
  double b = (a[2] + a[5]) + (a[8] + a[11]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    r += rgb[i * 3];
    g += rgb[i * 3 + 1];
    b += rgb[i * 3 + 2];
  }
  out_rgb[0] = r;
  out_rgb[1] = g;
  out_rgb[2] = b;
}

void squared_dist4_batch_avx2(const double* xs, const double* ys,
                              const double* zs, const double* ws,
                              std::size_t n, const double q[4], double* out) {
  const std::size_t n4 = n - n % 4;
  const __m256d qx = _mm256_set1_pd(q[0]);
  const __m256d qy = _mm256_set1_pd(q[1]);
  const __m256d qz = _mm256_set1_pd(q[2]);
  const __m256d qw = _mm256_set1_pd(q[3]);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(qx, _mm256_loadu_pd(xs + i));
    __m256d acc = _mm256_mul_pd(dx, dx);
    const __m256d dy = _mm256_sub_pd(qy, _mm256_loadu_pd(ys + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(dy, dy));
    const __m256d dz = _mm256_sub_pd(qz, _mm256_loadu_pd(zs + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(dz, dz));
    const __m256d dw = _mm256_sub_pd(qw, _mm256_loadu_pd(ws + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(dw, dw));
    _mm256_storeu_pd(out + i, acc);
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = detail::squared_dist4_one(xs, ys, zs, ws, i, q);
  }
}

// Anti-diagonal wavefront: the cells (i, k - i) of diagonal k read only
// diagonals k-1 (up, left) and k-2 (diag), so 4 of them go per instruction.
// Three rolling diagonals are indexed by i; y is stored reversed so that
// y[k-i-1] also runs forward in i. Each cell is detail::dtw_cell's sequence:
// vminpd(a, b) is a < b ? a : b, so min(left, up) then min(diag, ·) keeps
// the first smallest of (up, left, diag) as std::min does, NaN included.
double dtw_avx2(const double* x, std::size_t n, const double* y,
                std::size_t m) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> buf(3 * (n + 1) + m, kInf);
  double* d2 = buf.data();   // diagonal k-2
  double* d1 = d2 + n + 1;   // diagonal k-1
  double* d0 = d1 + n + 1;   // diagonal k
  double* yr = d0 + n + 1;   // yr[t] = y[m-1-t]
  for (std::size_t t = 0; t < m; ++t) yr[t] = y[m - 1 - t];
  d2[0] = 0.0;  // D[0][0]; diagonal 1 (D[0][1], D[1][0]) is all +inf

  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t k = 2; k <= n + m; ++k) {
    // The border cells D[0][k] and D[k][0] of this diagonal.
    if (k <= m) d0[0] = kInf;
    if (k <= n) d0[k] = kInf;
    std::size_t i = k > m ? k - m : 1;
    const std::size_t i_end = std::min(n, k - 1) + 1;
    // yk[i] = y[k-i-1]; the offset m - k turns negative once k > m.
    const double* yk = yr + static_cast<std::ptrdiff_t>(m) -
                       static_cast<std::ptrdiff_t>(k);
    for (; i + 4 <= i_end; i += 4) {
      const __m256d cost = _mm256_andnot_pd(
          sign, _mm256_sub_pd(_mm256_loadu_pd(x + i - 1),
                              _mm256_loadu_pd(yk + i)));
      __m256d best = _mm256_min_pd(_mm256_loadu_pd(d1 + i),       // left
                                   _mm256_loadu_pd(d1 + i - 1));  // up
      best = _mm256_min_pd(_mm256_loadu_pd(d2 + i - 1), best);    // diag
      const __m256d guard = _mm256_cmp_pd(best, inf, _CMP_EQ_OQ);
      _mm256_storeu_pd(
          d0 + i, _mm256_blendv_pd(_mm256_add_pd(cost, best), inf, guard));
    }
    for (; i < i_end; ++i) {
      d0[i] = detail::dtw_cell(x[i - 1], yk[i], d1[i - 1], d1[i], d2[i - 1]);
    }
    double* const spent = d2;
    d2 = d1;
    d1 = d0;
    d0 = spent;
  }
  return d1[n];
}

/// Left-pack permutations for _mm256_permutevar8x32_epi32: row `mask`
/// moves the 64-bit lanes whose bit is set in `mask` to the front, in
/// order (as dword index pairs 2k, 2k+1); the unused tail repeats lane 0.
struct PackTable {
  alignas(32) std::int32_t idx[16][8];
};

consteval PackTable make_pack_table() {
  PackTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        t.idx[mask][2 * out] = 2 * lane;
        t.idx[mask][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
    }
  }
  return t;
}

constexpr PackTable kPackTable = make_pack_table();

/// Exact u64 -> double per lane as hi·2³² + lo: each 32-bit half becomes
/// a double exactly (OR-ed under the exponent of 2⁵², then 2⁵²
/// subtracted), the scale by 2³² is exact, and the add rounds once — the
/// same bits as static_cast<double>(u).
__m256d u64_to_double(__m256i u) {
  const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic = _mm256_set1_pd(0x1p52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_blend_epi32(u, magic_bits, 0xAA)), magic);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(u, 32), magic_bits)),
      magic);
  return _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p32)), lo);
}

/// detail::canonical_uniform per lane, then 2u - 1.
__m256d polar_coordinate(__m256i u) {
  const __m256d r = _mm256_mul_pd(u64_to_double(u), _mm256_set1_pd(0x1p-64));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d canon = _mm256_blendv_pd(
      r, _mm256_set1_pd(detail::kBelowOne), _mm256_cmp_pd(r, one, _CMP_GE_OQ));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), canon), one);
}

std::size_t polar_candidates_avx2(const std::uint64_t* u, std::size_t m,
                                  double* xs, double* ys, double* r2s) {
  const std::size_t m4 = m - m % 4;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t count = 0;
  for (std::size_t j = 0; j < m4; j += 4) {
    // Words x0 y0 x1 y1 | x2 y2 x3 y3 -> x0..x3 and y0..y3.
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + 2 * j));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + 2 * j + 4));
    const __m256i xw = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(a, b),
                                                0xD8);
    const __m256i yw = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b),
                                                0xD8);
    const __m256d x = polar_coordinate(xw);
    const __m256d y = polar_coordinate(yw);
    const __m256d r2 = _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
    const __m256d reject = _mm256_or_pd(_mm256_cmp_pd(r2, one, _CMP_GT_OQ),
                                        _mm256_cmp_pd(r2, zero, _CMP_EQ_OQ));
    const int keep = ~_mm256_movemask_pd(reject) & 0xF;
    // count + 4 <= j + 4 <= m: the full-width stores stay inside the
    // caller's m-element outputs.
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPackTable.idx[keep]));
    auto pack = [perm](__m256d v) {
      return _mm256_castsi256_pd(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm));
    };
    _mm256_storeu_pd(xs + count, pack(x));
    _mm256_storeu_pd(ys + count, pack(y));
    _mm256_storeu_pd(r2s + count, pack(r2));
    count += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(keep)));
  }
  for (std::size_t j = m4; j < m; ++j) {
    count = detail::polar_candidate_one(u, j, xs, ys, r2s, count);
  }
  return count;
}

/// std::max(a, b) per lane, (a < b) ? b : a. Compare-and-blend, not
/// max_pd, so signed zeros and NaN select exactly as <algorithm> does.
__m256d std_max(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}

/// std::min(a, b) per lane, (b < a) ? b : a.
__m256d std_min(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}

/// std::clamp(v, 0, 255), which libstdc++ defines as min(max(v, lo), hi).
__m256d clamp_full_scale(__m256d v) {
  return std_min(std_max(v, _mm256_setzero_pd()),
                 _mm256_set1_pd(detail::kFullScale));
}

/// std::round per lane: half away from zero. t = trunc(v) is exact, so is
/// v - t; step one unit away from zero when |v - t| >= 0.5. Keeps -0.0
/// for v in (-0.5, -0] and passes NaN and infinities through.
__m256d round_half_away(__m256d v) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_andnot_pd(sign, _mm256_sub_pd(v, t));
  const __m256d step =
      _mm256_or_pd(_mm256_and_pd(v, sign), _mm256_set1_pd(1.0));
  return _mm256_blendv_pd(
      t, _mm256_add_pd(t, step),
      _mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ));
}

void camera_develop_avx2(const double* rgb, const double* z, std::size_t npix,
                         const CameraDevelop& p, double* out) {
  // 4 pixels = 12 interleaved values = 3 registers; the white-balance
  // pattern repeats every 12 lanes (as in luminance_row_sum).
  const __m256d wb[3] = {
      _mm256_setr_pd(p.wb[0], p.wb[1], p.wb[2], p.wb[0]),
      _mm256_setr_pd(p.wb[1], p.wb[2], p.wb[0], p.wb[1]),
      _mm256_setr_pd(p.wb[2], p.wb[0], p.wb[1], p.wb[2])};
  const __m256d gain = _mm256_set1_pd(p.gain);
  const __m256d read_var = _mm256_set1_pd(p.read_var);
  const __m256d shot_var = _mm256_set1_pd(p.shot_var);
  const __m256d zero = _mm256_setzero_pd();
  const std::size_t groups = npix / 4;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t r = 0; r < 3; ++r) {
      const std::size_t i = g * 12 + r * 4;
      __m256d lsb = _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(rgb + i), wb[r]),
                                  gain);
      const __m256d sigma = _mm256_sqrt_pd(
          _mm256_add_pd(read_var, _mm256_mul_pd(shot_var, std_max(zero, lsb))));
      lsb = _mm256_add_pd(
          lsb, _mm256_add_pd(zero, _mm256_mul_pd(sigma, _mm256_loadu_pd(z + i))));
      lsb = clamp_full_scale(lsb);
      _mm256_storeu_pd(out + i, p.quantize ? round_half_away(lsb) : lsb);
    }
  }
  for (std::size_t i = groups * 12; i < npix * 3; i += 3) {
    for (std::size_t c = 0; c < 3; ++c) {
      out[i + c] = detail::camera_develop_one(rgb[i + c], p.wb[c], z[i + c], p);
    }
  }
}

void codec_blend_quantize_avx2(const double* v, const double* dc,
                               const double* noise, std::size_t n,
                               const CodecBlend& p, double* out) {
  const std::size_t n4 = n - n % 4;
  const __m256d keep = _mm256_set1_pd(p.keep);
  const __m256d mix = _mm256_set1_pd(p.mix);
  const __m256d q = _mm256_set1_pd(p.q);
  const bool quantize = p.q > 0.5;
  for (std::size_t i = 0; i < n4; i += 4) {
    __m256d m = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(v + i), keep),
                              _mm256_mul_pd(_mm256_loadu_pd(dc + i), mix));
    m = _mm256_add_pd(m, _mm256_loadu_pd(noise + i));
    if (quantize) m = _mm256_mul_pd(round_half_away(_mm256_div_pd(m, q)), q);
    _mm256_storeu_pd(out + i, clamp_full_scale(m));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = detail::codec_blend_one(v[i], dc[i], noise[i], p);
  }
}

/// CRC-32 of a 16-byte-multiple span of at least 64 bytes by carry-less
/// folding (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction", Intel 2009): four 128-bit lanes fold 64
/// bytes per step, collapse into one lane, fold the remaining 16-byte
/// blocks, then reduce 128 -> 64 -> 32 bits with a Barrett reduction. The
/// constants are the paper's bit-reflected ones for 0xEDB88320: the fold
/// multipliers for 64- and 16-byte distances (k1k2, k3k4), x^64 mod P (k5),
/// and the Barrett pair P' and mu.
std::uint32_t crc32_fold_pclmul(std::uint32_t state, const std::uint8_t* data,
                                std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // acc * x^(fold distance) + next, with the 64-bit halves multiplied by
  // their own constant (low half by k[63:0], high half by k[127:64]).
  auto fold = [](__m128i acc, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 =
      _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  len -= 64;
  for (; len >= 64; data += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(data));
    x2 = fold(x2, k1k2, load(data + 16));
    x3 = fold(x3, k1k2, load(data + 32));
    x4 = fold(x4, k1k2, load(data + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; data += 16, len -= 16) x1 = fold(x1, k3k4, load(data));

  // 128 -> 64 bits: fold the low half onto the high half, then the low 32
  // bits of that onto the rest with x^64 mod P.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction 64 -> 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

std::uint32_t crc32_update_avx2(std::uint32_t state, const std::uint8_t* data,
                                std::size_t len) {
  if (len < 64) return detail::crc32_slice8(state, data, len);
  const std::size_t folded = len - len % 16;
  state = crc32_fold_pclmul(state, data, folded);
  return detail::crc32_slice8(state, data + folded, len - folded);
}

}  // namespace

const Kernels* avx2_kernels() {
  if (!avx2_table_usable(build_has_avx2(), cpu_supports_avx2(),
                         cpu_supports_pclmul())) {
    return nullptr;
  }
  static constexpr Kernels table = {
      sum_avx2,
      sum_sq_diff_avx2,
      pearson_accumulate_avx2,
      convolve_same_avx2,
      correlate_same_avx2,
      delay_linear_avx2,
      luminance_row_sum_avx2,
      rgb_channel_sums_avx2,
      squared_dist4_batch_avx2,
      dtw_avx2,
      crc32_update_avx2,
      detail::engine_words_avx2,
      polar_candidates_avx2,
      camera_develop_avx2,
      codec_blend_quantize_avx2,
      "avx2",
  };
  return &table;
}

}  // namespace lumichat::simd

#else  // !LUMICHAT_SIMD_HAS_AVX2: toolchain or target cannot emit AVX2.

namespace lumichat::simd {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace lumichat::simd

#endif
