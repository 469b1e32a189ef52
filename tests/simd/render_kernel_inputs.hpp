// Edge-heavy inputs for the chat-simulator kernels (polar_candidates,
// camera_develop, codec_blend_quantize), shared by the equality and
// reference suites. Roughly a third of the values are picked from a list of
// cases where a vector rewrite of std::round, std::clamp or the u64 ->
// double conversion could drift by one bit: exact .5 ties on both sides of
// zero, values that round to -0.0, the edges of [0, 255] and far outside it,
// infinities and NaN; the rest are uniform over [lo, hi).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace lumichat::simd::testing {

/// Bit equality, except that any two NaNs match. When both operands of an
/// add or multiply are NaN, IEEE 754 leaves open which one propagates and
/// x86 returns the first source, so the NaN's sign depends on how the
/// compiler ordered a commutative operation; that is not part of the
/// contract (the simulator never feeds NaN). Every other bit is.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// xorshift64 step: tests must not depend on libc rand.
inline std::uint64_t next_word(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

inline double next_unit(std::uint64_t& s) {
  return static_cast<double>(next_word(s) >> 11) * 0x1.0p-53;
}

inline constexpr double kEdgeValues[] = {
    0.5,    1.5,    2.5,     3.5,   -0.5,   -1.5,  -2.5,    -3.5,
    254.5,  255.5,  255.0,   256.0, 0.0,    -0.0,  -0.3,    -0.7,
    0x1.fffffffffffffp-2,   -0x1.fffffffffffffp-2, 300.0,   -12.0,
    1e300,  -1e300, std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN()};

/// n values, edge cases mixed with uniform draws over [lo, hi). `offset`
/// extra leading values let callers hand kernels unaligned spans.
inline std::vector<double> edge_values(std::uint64_t seed, std::size_t n,
                                       std::size_t offset, double lo,
                                       double hi) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  std::vector<double> v(n + offset);
  constexpr std::size_t kEdges = std::size(kEdgeValues);
  for (double& x : v) {
    const std::uint64_t pick = next_word(s);
    x = pick % 3 == 0 ? kEdgeValues[(pick >> 8) % kEdges]
                      : lo + (hi - lo) * next_unit(s);
  }
  return v;
}

/// std::generate_canonical<double, 53> on the single engine word w: the
/// library's own u64 -> [0, 1) rule for std::mt19937_64, which the polar
/// candidate step must reproduce.
inline double library_canonical(std::uint64_t w) {
  struct OneWord {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }
    result_type operator()() const { return word; }
    std::uint64_t word;
  } g{w};
  return std::generate_canonical<double, 53>(g);
}

/// 2m engine words for m polar candidates: plain words, words whose
/// conversion to double is a round-half-even tie (low 11 bits 0x400),
/// words in the top 2^11 that generate_canonical clamps to nextafter(1, 0),
/// and whole pairs of 2^63 (x = y = 0, the r2 == 0 rejection).
inline std::vector<std::uint64_t> edge_words(std::uint64_t seed, std::size_t m,
                                             std::size_t offset) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  std::vector<std::uint64_t> w(2 * m + offset);
  for (std::size_t i = 0; i + 1 < w.size(); i += 2) {
    if (next_word(s) % 16 == 0) {
      w[i] = w[i + 1] = std::uint64_t{1} << 63;
      continue;
    }
    for (std::size_t k = i; k < i + 2; ++k) {
      const std::uint64_t r = next_word(s);
      switch (r % 4) {
        case 0:
          w[k] = (r & ~std::uint64_t{0x7FF}) | 0x400;
          break;
        case 1:
          w[k] = UINT64_MAX - (r >> 53);
          break;
        default:
          w[k] = r;
          break;
      }
    }
  }
  return w;
}

}  // namespace lumichat::simd::testing
