#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "simd/dispatch.hpp"

namespace lumichat::common {

void Rng::std_normal_fill(double* out, std::size_t n) {
  if (n == 0) return;
  std::size_t i = 0;
  if (saved_available_) {
    saved_available_ = false;
    out[i++] = saved_ * 1.0 + 0.0;
  }
  // Accepted pairs per batch. Each batch draws exactly the candidates the
  // single-draw loop would: m candidates are drawn only while m more
  // acceptances are still needed, so no word is taken past the last one.
  constexpr std::size_t kPairs = 128;
  std::uint64_t words[2 * kPairs];
  double xs[kPairs];
  double ys[kPairs];
  double r2s[kPairs];
  double mult[kPairs];
  const simd::Kernels& kernels = simd::active();
  while (i < n) {
    const std::size_t pairs = std::min(kPairs, (n - i + 1) / 2);
    std::size_t got = 0;
    while (got < pairs) {
      const std::size_t m = pairs - got;
      kernels.engine_words(engine_, words, 2 * m);
      got += kernels.polar_candidates(words, m, xs + got, ys + got, r2s + got);
    }
    for (std::size_t j = 0; j < pairs; ++j) mult[j] = std::log(r2s[j]);
    for (std::size_t j = 0; j < pairs; ++j) {
      mult[j] = std::sqrt(-2 * mult[j] / r2s[j]);
    }
    for (std::size_t j = 0; j < pairs; ++j) {
      out[i++] = ys[j] * mult[j] * 1.0 + 0.0;
      if (i < n) {
        out[i++] = xs[j] * mult[j] * 1.0 + 0.0;
      } else {
        saved_ = xs[j] * mult[j];
        saved_available_ = true;
      }
    }
  }
}

}  // namespace lumichat::common
