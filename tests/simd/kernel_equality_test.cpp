// Property tests for the bit-exactness contract of kernels.hpp: for every
// kernel, the scalar and AVX2 tables must agree BIT FOR BIT — over lengths
// below one vector width, every tail remainder 1..7, sizes straddling the
// unroll boundaries, and unaligned spans. Dispatch must be a pure
// performance decision; any 1-ulp divergence here would surface as
// machine-dependent verdicts in production.
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dtw_inputs.hpp"
#include "simd/dispatch.hpp"
#include "render_kernel_inputs.hpp"

namespace lumichat::simd {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Deterministic xorshift64* generator — tests must not depend on libc rand.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed == 0 ? 0x9e3779b97f4a7c15ull : seed) {}
  double uniform(double lo, double hi) {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    const double u = static_cast<double>(s_ >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

 private:
  std::uint64_t s_;
};

/// A buffer whose payload starts `offset` doubles past the allocation, so
/// kernels see deliberately unaligned spans.
std::vector<double> random_buffer(Rng& rng, std::size_t n, std::size_t offset,
                                  double lo = -3.0, double hi = 3.0) {
  std::vector<double> buf(n + offset);
  for (double& v : buf) v = rng.uniform(lo, hi);
  return buf;
}

// Lengths straddling every interesting boundary: empty, below one vector
// width, every 4-lane tail 1..3, every 12-lane pixel tail 1..7 (via the
// 4-pixel groups), and the unroll edges of larger sizes.
const std::size_t kLens[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                             9,  11, 12, 13, 15,  16,  17,  31, 32,
                             33, 63, 64, 65, 127, 128, 200, 257};
const std::size_t kOffsets[] = {0, 1, 3};

class KernelEquality : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = avx2_kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 table unavailable on this build/CPU";
    }
  }

  const Kernels& scalar_ = scalar_kernels();
  const Kernels* avx2_ = nullptr;
};

TEST_F(KernelEquality, Sum) {
  Rng rng(11);
  for (std::size_t n : kLens) {
    for (std::size_t off : kOffsets) {
      const auto buf = random_buffer(rng, n, off);
      const double* p = buf.data() + off;
      EXPECT_EQ(bits(scalar_.sum(p, n)), bits(avx2_->sum(p, n)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelEquality, SumSqDiff) {
  Rng rng(12);
  for (std::size_t n : kLens) {
    for (std::size_t off : kOffsets) {
      const auto buf = random_buffer(rng, n, off);
      const double* p = buf.data() + off;
      const double m = rng.uniform(-1.0, 1.0);
      EXPECT_EQ(bits(scalar_.sum_sq_diff(p, n, m)),
                bits(avx2_->sum_sq_diff(p, n, m)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelEquality, PearsonAccumulate) {
  Rng rng(13);
  for (std::size_t n : kLens) {
    for (std::size_t off : kOffsets) {
      const auto xb = random_buffer(rng, n, off);
      const auto yb = random_buffer(rng, n, off);
      const double* x = xb.data() + off;
      const double* y = yb.data() + off;
      const double mx = rng.uniform(-1.0, 1.0);
      const double my = rng.uniform(-1.0, 1.0);
      const PearsonSums a = scalar_.pearson_accumulate(x, y, n, mx, my);
      const PearsonSums b = avx2_->pearson_accumulate(x, y, n, mx, my);
      EXPECT_EQ(bits(a.sxy), bits(b.sxy)) << "n=" << n << " off=" << off;
      EXPECT_EQ(bits(a.sxx), bits(b.sxx)) << "n=" << n << " off=" << off;
      EXPECT_EQ(bits(a.syy), bits(b.syy)) << "n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelEquality, ConvolveAndCorrelateSame) {
  Rng rng(14);
  for (std::size_t n : kLens) {
    for (std::size_t m : {1u, 3u, 5u, 9u, 21u}) {
      for (std::size_t off : kOffsets) {
        const auto xb = random_buffer(rng, n, off);
        const auto tb = random_buffer(rng, m, 0, -1.0, 1.0);
        const double* x = xb.data() + off;
        std::vector<double> ys(n, 0.0);
        std::vector<double> yv(n, 7.0);  // poison: every slot must be written
        scalar_.convolve_same(x, n, tb.data(), m, ys.data());
        avx2_->convolve_same(x, n, tb.data(), m, yv.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(ys[i]), bits(yv[i]))
              << "conv n=" << n << " m=" << m << " off=" << off << " i=" << i;
        }
        std::fill(yv.begin(), yv.end(), 7.0);
        scalar_.correlate_same(x, n, tb.data(), m, ys.data());
        avx2_->correlate_same(x, n, tb.data(), m, yv.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(ys[i]), bits(yv[i]))
              << "corr n=" << n << " m=" << m << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelEquality, DelayLinear) {
  Rng rng(16);
  const double delays[] = {0.0, 0.25, 1.0, 3.5, -0.75, -2.25, 1000.0, -1000.0};
  for (std::size_t n : kLens) {
    if (n == 0) continue;  // contract requires n >= 1
    for (const double d : delays) {
      for (std::size_t off : kOffsets) {
        const auto xb = random_buffer(rng, n, off);
        const double* x = xb.data() + off;
        std::vector<double> os(n, 0.0);
        std::vector<double> ov(n, 7.0);
        scalar_.delay_linear(x, n, d, os.data());
        avx2_->delay_linear(x, n, d, ov.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(os[i]), bits(ov[i]))
              << "n=" << n << " delay=" << d << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelEquality, LuminanceRowSumAndChannelSums) {
  Rng rng(17);
  for (std::size_t npix : kLens) {
    for (std::size_t off : kOffsets) {
      const auto buf = random_buffer(rng, npix * 3, off, 0.0, 1.0);
      const double* rgb = buf.data() + off;
      EXPECT_EQ(bits(scalar_.luminance_row_sum(rgb, npix, 0.2126, 0.7152,
                                               0.0722)),
                bits(avx2_->luminance_row_sum(rgb, npix, 0.2126, 0.7152,
                                              0.0722)))
          << "npix=" << npix << " off=" << off;
      double cs[3];
      double cv[3];
      scalar_.rgb_channel_sums(rgb, npix, cs);
      avx2_->rgb_channel_sums(rgb, npix, cv);
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(bits(cs[c]), bits(cv[c]))
            << "npix=" << npix << " off=" << off << " c=" << c;
      }
    }
  }
}

TEST_F(KernelEquality, SquaredDist4Batch) {
  Rng rng(18);
  for (std::size_t n : kLens) {
    for (std::size_t off : kOffsets) {
      const auto xs = random_buffer(rng, n, off);
      const auto ys = random_buffer(rng, n, off);
      const auto zs = random_buffer(rng, n, off);
      const auto ws = random_buffer(rng, n, off);
      const double q[4] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                           rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
      std::vector<double> os(n, 0.0);
      std::vector<double> ov(n, 7.0);
      scalar_.squared_dist4_batch(xs.data() + off, ys.data() + off,
                                  zs.data() + off, ws.data() + off, n, q,
                                  os.data());
      avx2_->squared_dist4_batch(xs.data() + off, ys.data() + off,
                                 zs.data() + off, ws.data() + off, n, q,
                                 ov.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(os[i]), bits(ov[i]))
            << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST_F(KernelEquality, PolarCandidates) {
  std::uint64_t seed = 19;
  for (std::size_t m : kLens) {
    for (std::size_t off : kOffsets) {
      const auto words = testing::edge_words(++seed, m, off);
      std::vector<double> s[3];
      std::vector<double> v[3];
      for (auto& a : s) a.assign(m, 0.0);
      for (auto& a : v) a.assign(m, 7.0);
      const std::size_t ns = scalar_.polar_candidates(
          words.data() + off, m, s[0].data(), s[1].data(), s[2].data());
      const std::size_t nv = avx2_->polar_candidates(
          words.data() + off, m, v[0].data(), v[1].data(), v[2].data());
      ASSERT_EQ(ns, nv) << "m=" << m << " off=" << off;
      for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t i = 0; i < ns; ++i) {
          ASSERT_EQ(bits(s[a][i]), bits(v[a][i]))
              << "m=" << m << " off=" << off << " array=" << a << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelEquality, CameraDevelop) {
  std::uint64_t seed = 20;
  for (std::size_t npix : kLens) {
    for (std::size_t off : kOffsets) {
      for (const bool quantize : {true, false}) {
        const auto rgb = testing::edge_values(++seed, npix * 3, off, -0.2, 1.2);
        const auto z = testing::edge_values(++seed, npix * 3, off, -4.0, 4.0);
        CameraDevelop p;
        p.wb[0] = 1.03;
        p.wb[1] = 1.0;
        p.wb[2] = 0.96;
        p.gain = 255.0 * 0.5 / 0.37;
        p.read_var = 1.0;
        p.shot_var = 0.06 * 0.06;
        p.quantize = quantize;
        std::vector<double> os(npix * 3, 0.0);
        std::vector<double> ov(npix * 3, 7.0);
        scalar_.camera_develop(rgb.data() + off, z.data() + off, npix, p,
                               os.data());
        avx2_->camera_develop(rgb.data() + off, z.data() + off, npix, p,
                              ov.data());
        for (std::size_t i = 0; i < npix * 3; ++i) {
          ASSERT_TRUE(testing::same_bits(os[i], ov[i]))
              << "npix=" << npix << " off=" << off << " q=" << quantize
              << " i=" << i << " in=" << rgb[off + i] << " z=" << z[off + i];
        }
      }
    }
  }
}

TEST_F(KernelEquality, CodecBlendQuantize) {
  std::uint64_t seed = 21;
  // q = 0 and 0.4 skip quantisation; at q = 1.0 the blend is the identity
  // and the noise is zero, so the .5 ties and the values that round to -0.0
  // reach std::round as they are.
  const double steps[] = {0.0, 0.4, 1.0, 1.5, 6.0 * 0.3};
  for (std::size_t n : kLens) {
    for (std::size_t off : kOffsets) {
      for (const double q : steps) {
        const auto v = testing::edge_values(++seed, n, off, -20.0, 280.0);
        const auto dc = testing::edge_values(++seed, n, off, 0.0, 255.0);
        const auto noise =
            q == 1.0 ? std::vector<double>(n + off, 0.0)
                     : testing::edge_values(++seed, n, off, -3.0, 3.0);
        CodecBlend p;
        p.keep = q == 1.0 ? 1.0 : 1.0 - 0.6 * 0.3;
        p.mix = q == 1.0 ? 0.0 : 0.6 * 0.3;
        p.q = q;
        std::vector<double> os(n, 0.0);
        std::vector<double> ov(n, 7.0);
        scalar_.codec_blend_quantize(v.data() + off, dc.data() + off,
                                     noise.data() + off, n, p, os.data());
        avx2_->codec_blend_quantize(v.data() + off, dc.data() + off,
                                    noise.data() + off, n, p, ov.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(testing::same_bits(os[i], ov[i]))
              << "n=" << n << " off=" << off << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelEquality, Dtw) {
  // Every shape pair (so every diagonal length and 4-cell tail), plain and
  // with special values, then random unequal lengths 1..200. Strict bit
  // equality, NaN included: every NaN a DTW table can hold is fabs() of
  // one, so its sign bit is clear whichever operand an add propagates.
  std::uint64_t seed = 31;
  auto check = [&](std::size_t n, std::size_t m, bool specials) {
    const auto x = testing::dtw_signal(++seed, n, specials);
    const auto y = testing::dtw_signal(++seed, m, specials);
    ASSERT_EQ(bits(scalar_.dtw(x.data(), n, y.data(), m)),
              bits(avx2_->dtw(x.data(), n, y.data(), m)))
        << "n=" << n << " m=" << m << " specials=" << specials;
  };
  for (const std::size_t n : testing::kDtwLens) {
    for (const std::size_t m : testing::kDtwLens) {
      check(n, m, false);
      check(n, m, true);
    }
  }
  std::uint64_t s = 5;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + testing::next_word(s) % 200;
    const std::size_t m = 1 + testing::next_word(s) % 200;
    check(n, m, trial % 2 == 1);
  }
}

}  // namespace
}  // namespace lumichat::simd
