// Inputs for the DTW kernel, shared by the equality and reference suites:
// the shapes where a wavefront could go wrong (1×1, 1×n, n×1, lengths that
// leave every diagonal tail 1..3, unequal lengths up to 200) and signals
// with NaN, ±inf, -0.0 and ±1e308 injected at random positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "render_kernel_inputs.hpp"

namespace lumichat::simd::testing {

inline constexpr std::size_t kDtwLens[] = {1,  2,  3,  4,  5,  6,  7,   8,  9,
                                           13, 16, 17, 31, 64, 75, 128, 200};

inline constexpr double kDtwSpecials[] = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    -0.0, 1e308, -1e308};

/// n uniform values in [0, 1) (the range of the normalised trends the
/// detector compares); with `specials`, each position is replaced by one of
/// kDtwSpecials with probability 1/16.
inline std::vector<double> dtw_signal(std::uint64_t seed, std::size_t n,
                                      bool specials) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 7;
  std::vector<double> v(n);
  for (double& x : v) {
    x = next_unit(s);
    const std::uint64_t pick = next_word(s);
    if (specials && pick % 16 == 0) {
      x = kDtwSpecials[(pick >> 8) % std::size(kDtwSpecials)];
    }
  }
  return v;
}

}  // namespace lumichat::simd::testing
