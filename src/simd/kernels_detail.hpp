// Shared per-output scalar helpers for the SIMD kernel translation units.
//
// Both kernels_scalar.cpp and kernels_avx2.cpp include this header for edge
// handling and sub-vector tails (and the CRC-32 table loop, which is the
// scalar kernel and the AVX2 kernel's short-input path), so those samples
// go through literally the same expressions in both dispatch paths (and
// both TUs are compiled with -ffp-contract=off, so no path gains FMA
// contraction the other lacks).
// Internal to src/simd — call sites use kernels.hpp / dispatch.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/kernels.hpp"

namespace lumichat::simd::detail {

/// One clamped-convolution output: ascending-k accumulation of
/// taps[k] * x[clamp(i + m/2 - k)]. Matches the pre-SIMD FirFilter loop.
inline double convolve_one(const double* x, std::ptrdiff_t n,
                           const double* taps, std::ptrdiff_t m,
                           std::ptrdiff_t i) {
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i + half - k, 0, n - 1);
    acc += taps[k] * x[j];
  }
  return acc;
}

/// One clamped-correlation output: ascending-k accumulation of
/// kern[k] * x[clamp(i - m/2 + k)]. Matches the pre-SIMD Savitzky–Golay loop.
inline double correlate_one(const double* x, std::ptrdiff_t n,
                            const double* kern, std::ptrdiff_t m,
                            std::ptrdiff_t i) {
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i - half + k, 0, n - 1);
    acc += kern[k] * x[j];
  }
  return acc;
}

/// Clamped linear interpolation at fractional index t (n >= 1). Matches the
/// pre-SIMD delay_signal sample_at: mul, mul, add — no FMA.
inline double sample_at(const double* x, std::size_t n, double t) {
  const double max_t = static_cast<double>(n - 1);
  t = std::clamp(t, 0.0, max_t);
  const auto i0 = static_cast<std::size_t>(std::floor(t));
  const std::size_t i1 = std::min(i0 + 1, n - 1);
  const double frac = t - static_cast<double>(i0);
  return x[i0] * (1.0 - frac) + x[i1] * frac;
}

/// One DTW table cell from its upper, left and diagonal neighbours (see
/// Kernels::dtw): the first smallest neighbour, then the +inf guard, then
/// one add of the local cost.
inline double dtw_cell(double xi, double yj, double up, double left,
                       double diag) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cost = std::fabs(xi - yj);
  const double best = std::min({up, left, diag});
  return best == kInf ? kInf : cost + best;
}

/// One pixel's weighted luminance, the tail-pixel grouping of
/// luminance_row_sum: (r*kR + g*kG) + b*kB.
inline double luminance_one(const double* rgb, double luma_r, double luma_g,
                            double luma_b) {
  return (rgb[0] * luma_r + rgb[1] * luma_g) + rgb[2] * luma_b;
}

/// One candidate's 4-D squared distance in model::euclidean()'s pre-sqrt
/// accumulation order.
inline double squared_dist4_one(const double* xs, const double* ys,
                                const double* zs, const double* ws,
                                std::size_t i, const double q[4]) {
  const double dx = q[0] - xs[i];
  double acc = dx * dx;
  const double dy = q[1] - ys[i];
  acc += dy * dy;
  const double dz = q[2] - zs[i];
  acc += dz * dz;
  const double dw = q[3] - ws[i];
  acc += dw * dw;
  return acc;
}

/// Upper clamp of the simulator's 8-bit frames (camera develop, codec).
inline constexpr double kFullScale = 255.0;

/// std::nextafter(1.0, 0.0): generate_canonical's clamp for results >= 1.
inline constexpr double kBelowOne = 0x1.fffffffffffffp-1;

/// One engine word as a uniform in [0, 1), the generate_canonical<double,
/// 53> rule on std::mt19937_64: the word converted to double (hi·2³² + lo
/// is exact until the single rounding of the add), times 2⁻⁶⁴.
inline double canonical_uniform(std::uint64_t u) {
  const double d =
      static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::uint32_t>(u));
  const double r = d * 0x1p-64;
  return r >= 1.0 ? kBelowOne : r;
}

/// Kernels::engine_words of the two tables (engine_words.cpp).
void engine_words_scalar(std::mt19937_64& engine, std::uint64_t* out,
                         std::size_t n);
void engine_words_avx2(std::mt19937_64& engine, std::uint64_t* out,
                       std::size_t n);

/// Polar-method candidate j of the word pairs in u: stores it at index
/// `count` of xs/ys/r2s unconditionally and returns count + 1 when it is
/// accepted, count otherwise (branch-free compaction).
inline std::size_t polar_candidate_one(const std::uint64_t* u, std::size_t j,
                                       double* xs, double* ys, double* r2s,
                                       std::size_t count) {
  const double x = 2.0 * canonical_uniform(u[2 * j]) - 1.0;
  const double y = 2.0 * canonical_uniform(u[2 * j + 1]) - 1.0;
  const double r2 = x * x + y * y;
  xs[count] = x;
  ys[count] = y;
  r2s[count] = r2;
  return count + static_cast<std::size_t>(!(r2 > 1.0 || r2 == 0.0));
}

/// One camera-develop output (see Kernels::camera_develop): the
/// CameraModel::capture per-channel step with its noise draw z.
inline double camera_develop_one(double v, double wb, double z,
                                 const CameraDevelop& p) {
  double lsb = (v * wb) * p.gain;
  const double sigma = std::sqrt(p.read_var + p.shot_var * std::max(0.0, lsb));
  lsb += 0.0 + sigma * z;
  lsb = std::clamp(lsb, 0.0, kFullScale);
  return p.quantize ? std::round(lsb) : lsb;
}

/// One codec blend-quantize output (see Kernels::codec_blend_quantize).
inline double codec_blend_one(double v, double dc, double noise,
                              const CodecBlend& p) {
  double mixed = v * p.keep + dc * p.mix;
  mixed += noise;
  if (p.q > 0.5) mixed = std::round(mixed / p.q) * p.q;
  return std::clamp(mixed, 0.0, kFullScale);
}

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320,
/// built at compile time: table[0] is the classic byte table, table[k][b]
/// advances byte b through k further zero bytes.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

/// Little-endian 32-bit load, independent of host byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Table-driven CRC-32 update: eight bytes per step through the slicing
/// tables, then the < 8-byte tail one byte at a time. The scalar table's
/// kernel, and the AVX2 table's path for short inputs and folding tails.
inline std::uint32_t crc32_slice8(std::uint32_t state, const std::uint8_t* data,
                                  std::size_t len) {
  const auto& t = kCrc32Tables;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ state;
    const std::uint32_t hi = load_le32(data + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    state = t[0][(state ^ *data) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace lumichat::simd::detail
