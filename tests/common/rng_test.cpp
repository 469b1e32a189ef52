// Bit-exactness of common::Rng's normal draws against the standard library
// distribution they replaced: gaussian() and std_normal_fill() must give
// exactly the values, and leave the engine exactly where,
// std::normal_distribution<double>{0, 1} on std::mt19937_64 would. Seeded
// simulator streams (camera noise, codec noise, volunteer behaviour) keep
// their bits only as long as this holds.
#include "common/rng.hpp"

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace lumichat::common {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The library reference: the engine plus the distributions Rng mirrors.
struct Reference {
  explicit Reference(std::uint64_t seed) : engine(seed) {}
  double gaussian() { return normal(engine); }
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(engine); }

  std::mt19937_64 engine;
  std::normal_distribution<double> normal{0.0, 1.0};
};

class RngReference : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(__GLIBCXX__)
    GTEST_SKIP() << "Rng mirrors libstdc++'s normal_distribution";
#endif
  }
};

constexpr std::uint64_t kSeeds = 24;

// Fill sizes: empty, the odd/even edges of the saved second value, a
// 96-pixel row of r,g,b draws and one less, and a whole 96x72 frame.
const std::size_t kFillSizes[] = {0, 1, 2, 3, 287, 288, 20736};

TEST_F(RngReference, GaussianMatchesNormalDistributionBitwise) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 7919 + 1);
    Reference ref(seed * 7919 + 1);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(bits(rng.gaussian()), bits(ref.gaussian()))
          << "seed " << seed << " draw " << i;
    }
    // Mean and sigma fold in as mean + sigma * z.
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(bits(rng.gaussian(3.5, 0.25)), bits(3.5 + 0.25 * ref.gaussian()));
    }
    EXPECT_TRUE(rng.engine() == ref.engine) << "seed " << seed;
  }
}

TEST_F(RngReference, FillMatchesSingleDrawsBackToBack) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 100);
    Reference ref(seed + 100);
    std::vector<double> out;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t n : kFillSizes) {
        out.assign(n + 1, -7.0);
        rng.std_normal_fill(out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(out[i]), bits(ref.gaussian()))
              << "seed " << seed << " n " << n << " i " << i;
        }
        EXPECT_EQ(out[n], -7.0) << "fill wrote past n = " << n;
        // The engine sits where n single draws would leave it.
        ASSERT_TRUE(rng.engine() == ref.engine)
            << "seed " << seed << " n " << n;
      }
    }
  }
}

TEST_F(RngReference, FillInterleavedWithOtherDrawsCarriesTheSavedValue) {
  const std::size_t sizes[] = {1, 3, 2, 287, 1, 0, 5, 288, 1, 20736, 3};
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed ^ 0xA5A5u);
    Reference ref(seed ^ 0xA5A5u);
    std::vector<double> out;
    for (std::size_t k = 0; k < std::size(sizes); ++k) {
      const std::size_t n = sizes[k];
      out.assign(n, 0.0);
      rng.std_normal_fill(out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(out[i]), bits(ref.gaussian()))
            << "seed " << seed << " step " << k << " i " << i;
      }
      // Odd steps leave a saved value behind; the next gaussian() or fill
      // must hand it out before touching the engine again.
      switch (k % 3) {
        case 0:
          ASSERT_EQ(bits(rng.gaussian()), bits(ref.gaussian()));
          break;
        case 1:
          ASSERT_EQ(bits(rng.uniform()), bits(ref.uniform()));
          break;
        default:
          ASSERT_EQ(rng.chance(0.3), ref.chance(0.3));
          break;
      }
      ASSERT_TRUE(rng.engine() == ref.engine) << "seed " << seed << " step "
                                              << k;
    }
  }
}

}  // namespace
}  // namespace lumichat::common
