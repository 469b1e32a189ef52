// Deterministic random-number utilities.
//
// Every stochastic component of the simulator (camera noise, landmark
// jitter, volunteer behaviour, ambient fluctuation) takes an explicit Rng so
// experiments are reproducible from a single seed, and so independent
// components can be given decorrelated streams derived from that seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

namespace lumichat::common {

/// Thin wrapper over std::mt19937_64 with convenience draws.
///
/// Normal draws are owned here rather than by std::normal_distribution,
/// whose algorithm the standard leaves unspecified: std_normal_fill() is a
/// step for step copy of libstdc++'s Marsaglia polar method (same engine
/// words, same IEEE operations, same saved second value), so seeded streams
/// keep the bits they had when the simulator used the library distribution.
/// gaussian() is a fill of one.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EEDULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw: mean + sigma * (one standard-normal draw).
  [[nodiscard]] double gaussian(double mean = 0.0, double sigma = 1.0) {
    double z;
    std_normal_fill(&z, 1);
    return mean + sigma * z;
  }

  /// Writes n standard-normal draws to out: bit for bit the values, and the
  /// engine position, of n draws of std::normal_distribution<double>{0, 1}.
  /// The hot path of camera noise (rng.cpp batches the engine words and the
  /// polar candidates through the SIMD kernel table and calls std::log over
  /// the accepted ones).
  void std_normal_fill(double* out, std::size_t n);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo,
                                          std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  double saved_ = 0.0;  // second value of the last accepted pair
  bool saved_available_ = false;
};

/// SplitMix64 step — used to derive decorrelated child seeds from a master
/// seed (e.g. one stream per volunteer per clip).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derives a child seed for stream `stream_id` from `master`.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t stream_id) {
  return splitmix64(master ^ splitmix64(stream_id));
}

}  // namespace lumichat::common
