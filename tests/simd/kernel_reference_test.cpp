// Pins the scalar kernel table against independent reference
// implementations. Per-output kernels must be BIT-identical to the legacy
// per-sample loops they replaced (that is what kept the golden Fig. 11
// metrics from churning); reductions use a documented widen-then-reduce
// order, so they are checked against a naive sequential sum to a tight
// relative tolerance and against a handwritten widened reducer exactly.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dtw_inputs.hpp"
#include "model/snapshot.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "render_kernel_inputs.hpp"

namespace lumichat::simd {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> ramp_signal(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           0.25 * static_cast<double>(i % 7);
  }
  return x;
}

// The pre-SIMD FirFilter convolution loop, verbatim semantics.
double legacy_convolve_at(const std::vector<double>& x,
                          const std::vector<double>& taps, std::size_t i) {
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto m = static_cast<std::ptrdiff_t>(taps.size());
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + half - k;
    j = std::max<std::ptrdiff_t>(0, std::min(j, n - 1));
    acc += taps[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(j)];
  }
  return acc;
}

// The pre-SIMD delay_signal clamped linear interpolation, verbatim.
double legacy_sample_at(const std::vector<double>& x, double t) {
  const double max_t = static_cast<double>(x.size() - 1);
  t = std::max(0.0, std::min(t, max_t));
  const auto i0 = static_cast<std::size_t>(std::floor(t));
  const std::size_t i1 = std::min(i0 + 1, x.size() - 1);
  const double frac = t - static_cast<double>(i0);
  return x[i0] * (1.0 - frac) + x[i1] * frac;
}

TEST(KernelReference, ConvolveMatchesLegacyLoopBitwise) {
  const Kernels& k = scalar_kernels();
  const std::vector<double> x = ramp_signal(97);
  const std::vector<double> taps = {0.1, -0.3, 0.6, 0.4, 0.2};
  std::vector<double> y(x.size(), 0.0);
  k.convolve_same(x.data(), x.size(), taps.data(), taps.size(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits(y[i]), bits(legacy_convolve_at(x, taps, i))) << "i=" << i;
  }
}

TEST(KernelReference, DelayMatchesLegacySampleAtBitwise) {
  const Kernels& k = scalar_kernels();
  const std::vector<double> x = ramp_signal(61);
  for (const double delay : {0.0, 0.4, -1.3, 2.75, 100.0}) {
    std::vector<double> y(x.size(), 0.0);
    k.delay_linear(x.data(), x.size(), delay, y.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(y[i]),
                bits(legacy_sample_at(x, static_cast<double>(i) - delay)))
          << "delay=" << delay << " i=" << i;
    }
  }
}

TEST(KernelReference, SquaredDistPlusSqrtMatchesEuclideanBitwise) {
  const Kernels& k = scalar_kernels();
  const std::size_t n = 37;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  std::vector<double> zs(n);
  std::vector<double> ws(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    xs[i] = std::sin(0.3 * t);
    ys[i] = std::cos(0.7 * t);
    zs[i] = 0.1 * t;
    ws[i] = std::sin(1.1 * t + 0.5);
  }
  const double q[4] = {0.2, -0.4, 1.7, 0.05};
  std::vector<double> d2(n, 0.0);
  k.squared_dist4_batch(xs.data(), ys.data(), zs.data(), ws.data(), n, q, d2.data());
  for (std::size_t i = 0; i < n; ++i) {
    const model::Point4 a = {q[0], q[1], q[2], q[3]};
    const model::Point4 b = {xs[i], ys[i], zs[i], ws[i]};
    ASSERT_EQ(bits(std::sqrt(d2[i])), bits(model::euclidean(a, b)))
        << "i=" << i;
  }
}

TEST(KernelReference, SumMatchesWidenedReferenceBitwiseAndNaiveNearly) {
  const Kernels& k = scalar_kernels();
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 1001u}) {
    const std::vector<double> x = ramp_signal(n);
    // Handwritten canonical widen-4 reduction from the kernels.hpp contract.
    double lanes[detail::kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t body = n - n % detail::kReduceLanes;
    for (std::size_t i = 0; i < body; ++i) lanes[i % 4] += x[i];
    double widened = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (std::size_t i = body; i < n; ++i) widened += x[i];
    const double got = k.sum(x.data(), n);
    EXPECT_EQ(bits(got), bits(widened)) << "n=" << n;
    double naive = 0.0;
    for (const double v : x) naive += v;
    EXPECT_NEAR(got, naive, 1e-12 * std::max(1.0, std::fabs(naive)))
        << "n=" << n;
  }
}

TEST(KernelReference, LuminanceRowSumNearNaive) {
  const Kernels& k = scalar_kernels();
  const std::size_t npix = 103;
  std::vector<double> rgb(npix * 3);
  for (std::size_t i = 0; i < rgb.size(); ++i) {
    rgb[i] = 0.5 + 0.5 * std::sin(0.13 * static_cast<double>(i));
  }
  const double kr = 0.2126;
  const double kg = 0.7152;
  const double kb = 0.0722;
  double naive = 0.0;
  for (std::size_t i = 0; i < npix; ++i) {
    naive += (rgb[3 * i] * kr + rgb[3 * i + 1] * kg) + rgb[3 * i + 2] * kb;
  }
  EXPECT_NEAR(k.luminance_row_sum(rgb.data(), npix, kr, kg, kb), naive,
              1e-12 * naive);
}

/// Both kernel tables the machine can run.
std::vector<const Kernels*> tables() {
  std::vector<const Kernels*> t = {&scalar_kernels()};
  if (avx2_kernels() != nullptr) t.push_back(avx2_kernels());
  return t;
}

// The pre-kernel signal::dtw_distance row loop (its band disabled),
// verbatim.
double legacy_dtw(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(m + 1, kInf);
  std::vector<double> curr(m + 1, kInf);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    for (std::size_t j = 1; j <= m; ++j) {
      const double cost = std::fabs(x[i - 1] - y[j - 1]);
      const double best = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = best == kInf ? kInf : cost + best;
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

TEST(KernelReference, DtwMatchesLegacyRowLoopBitwise) {
  std::uint64_t seed = 41;
  for (const Kernels* k : tables()) {
    for (const std::size_t n : testing::kDtwLens) {
      for (const std::size_t m : testing::kDtwLens) {
        for (const bool specials : {false, true}) {
          const auto x = testing::dtw_signal(++seed, n, specials);
          const auto y = testing::dtw_signal(++seed, m, specials);
          ASSERT_EQ(bits(k->dtw(x.data(), n, y.data(), m)),
                    bits(legacy_dtw(x, y)))
              << k->name << " n=" << n << " m=" << m
              << " specials=" << specials;
        }
      }
    }
  }
}

// The pre-kernel CameraModel::capture per-channel lambda, verbatim except
// that its rng_.gaussian(0.0, sigma) draw is the equivalent 0.0 + sigma*z.
double legacy_develop(double v, double gain, double read_noise_sigma,
                      double shot_noise_coeff, bool quantize, double z) {
  double lsb = v * gain;
  const double sigma =
      std::sqrt(read_noise_sigma * read_noise_sigma +
                shot_noise_coeff * shot_noise_coeff * std::max(0.0, lsb));
  lsb += 0.0 + sigma * z;
  lsb = std::clamp(lsb, 0.0, 255.0);
  return quantize ? std::round(lsb) : lsb;
}

// The pre-kernel VideoCodec::transcode per-channel lambda, verbatim.
double legacy_codec(double v, double dcv, double stress, double block_noise,
                    double q) {
  double mixed = v * (1.0 - 0.6 * stress) + dcv * (0.6 * stress);
  mixed += block_noise;
  if (q > 0.5) mixed = std::round(mixed / q) * q;
  return std::clamp(mixed, 0.0, 255.0);
}

TEST(KernelReference, CameraDevelopMatchesLegacyLambdaBitwise) {
  const double wb[3] = {1.07, 0.99, 0.93};
  const double gain = 344.6;
  const double read_sigma = 1.0;
  const double shot_coeff = 0.06;
  std::uint64_t seed = 40;
  for (const Kernels* k : tables()) {
    for (std::size_t npix : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 96u, 101u}) {
      for (std::size_t off : {0u, 1u, 3u}) {
        for (const bool quantize : {true, false}) {
          const auto rgb =
              testing::edge_values(++seed, npix * 3, off, -0.1, 1.0);
          const auto z = testing::edge_values(++seed, npix * 3, off, -4.0, 4.0);
          CameraDevelop p;
          std::copy(wb, wb + 3, p.wb);
          p.gain = gain;
          p.read_var = read_sigma * read_sigma;
          p.shot_var = shot_coeff * shot_coeff;
          p.quantize = quantize;
          std::vector<double> out(npix * 3, 7.0);
          k->camera_develop(rgb.data() + off, z.data() + off, npix, p,
                            out.data());
          for (std::size_t i = 0; i < npix * 3; ++i) {
            const double want =
                legacy_develop(rgb[off + i] * wb[i % 3], gain, read_sigma,
                               shot_coeff, quantize, z[off + i]);
            ASSERT_TRUE(testing::same_bits(out[i], want))
                << k->name << " npix=" << npix << " off=" << off
                << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(KernelReference, CameraDevelopRoundsExactTiesAwayFromZero) {
  // gain 1, no noise: the develop is clamp-then-round of the input itself.
  const double in[] = {0.5, 1.5, 2.5, 253.5, 254.5, 255.5, -0.5, -0.0, 0.3};
  const double want[] = {1.0, 2.0, 3.0, 254.0, 255.0, 255.0, 0.0, 0.0, 0.0};
  const std::size_t n = std::size(in);
  const std::vector<double> z(n, 0.0);
  CameraDevelop p;
  p.gain = 1.0;
  for (const Kernels* k : tables()) {
    std::vector<double> out(n, 7.0);
    k->camera_develop(in, z.data(), n / 3, p, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(out[i]), bits(want[i])) << k->name << " in=" << in[i];
    }
  }
}

TEST(KernelReference, CodecBlendQuantizeMatchesLegacyLambdaBitwise) {
  std::uint64_t seed = 60;
  for (const Kernels* k : tables()) {
    for (const double stress : {0.25, 0.6, 1.0}) {
      for (const double quant_step : {0.0, 1.0, 6.0}) {
        for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 24u, 101u}) {
          for (std::size_t off : {0u, 1u, 3u}) {
            const double q = quant_step * stress;
            const auto v = testing::edge_values(++seed, n, off, -20.0, 280.0);
            const auto dc = testing::edge_values(++seed, n, off, 0.0, 255.0);
            const auto noise =
                testing::edge_values(++seed, n, off, -3.0, 3.0);
            CodecBlend p;
            p.keep = 1.0 - 0.6 * stress;
            p.mix = 0.6 * stress;
            p.q = q;
            std::vector<double> out(n, 7.0);
            k->codec_blend_quantize(v.data() + off, dc.data() + off,
                                    noise.data() + off, n, p, out.data());
            for (std::size_t i = 0; i < n; ++i) {
              const double want = legacy_codec(v[off + i], dc[off + i],
                                                stress, noise[off + i], q);
              ASSERT_TRUE(testing::same_bits(out[i], want))
                  << k->name << " stress=" << stress << " q=" << q
                  << " n=" << n << " off=" << off << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KernelReference, CodecQuantizeKeepsNegativeZeroAndTies) {
  // keep 1, mix 0, no noise, q 1: the output is clamp(round(v)). std::clamp
  // returns -0.0 for -0.0 (it is not less than +0.0), so values rounding to
  // -0.0 must stay -0.0 — a max_pd clamp would turn them into +0.0.
  const double in[] = {-0.3, -0.49999999999999994, 0.5, -0.5, 2.5, -2.5,
                       254.5, 255.5, 3.0};
  const double want[] = {-0.0, -0.0, 1.0, 0.0, 3.0, 0.0, 255.0, 255.0, 3.0};
  const std::size_t n = std::size(in);
  const std::vector<double> zeros(n, 0.0);
  CodecBlend p;
  p.keep = 1.0;
  p.mix = 0.0;
  p.q = 1.0;
  for (const Kernels* k : tables()) {
    std::vector<double> out(n, 7.0);
    k->codec_blend_quantize(in, zeros.data(), zeros.data(), n, p, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(out[i]), bits(want[i])) << k->name << " in=" << in[i];
    }
  }
}

// Spans that end on both sides of the engine's 312-word refill, back to
// back from one engine, so later spans start mid-block.
TEST(KernelReference, EngineWordsMatchEngineCalls) {
  for (const Kernels* k : tables()) {
    std::mt19937_64 engine(91);
    std::mt19937_64 ref(91);
    for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 305u, 311u, 312u, 313u, 624u,
                          1000u}) {
      std::vector<std::uint64_t> out(n + 1, 7);
      k->engine_words(engine, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], ref()) << k->name << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(out[n], 7u) << k->name << " wrote past n = " << n;
      ASSERT_TRUE(engine == ref) << k->name << " n=" << n;
    }
  }
}

TEST(KernelReference, PolarCandidatesMatchGenerateCanonicalLoop) {
  std::uint64_t seed = 80;
  for (const Kernels* k : tables()) {
    for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 64u, 333u}) {
      for (std::size_t off : {0u, 1u, 3u}) {
        const auto words = testing::edge_words(++seed, m, off);
        const std::uint64_t* u = words.data() + off;
        std::vector<double> xs(m, 7.0);
        std::vector<double> ys(m, 7.0);
        std::vector<double> r2s(m, 7.0);
        const std::size_t got =
            k->polar_candidates(u, m, xs.data(), ys.data(), r2s.data());
        // The candidate loop of libstdc++'s normal_distribution, on the
        // library's own generate_canonical.
        std::size_t want = 0;
        for (std::size_t j = 0; j < m; ++j) {
          const double x = 2.0 * testing::library_canonical(u[2 * j]) - 1.0;
          const double y = 2.0 * testing::library_canonical(u[2 * j + 1]) - 1.0;
          const double r2 = x * x + y * y;
          if (r2 > 1.0 || r2 == 0.0) continue;
          ASSERT_LT(want, got) << k->name << " m=" << m;
          ASSERT_TRUE(testing::same_bits(xs[want], x)) << k->name << " j=" << j;
          ASSERT_TRUE(testing::same_bits(ys[want], y)) << k->name << " j=" << j;
          ASSERT_TRUE(testing::same_bits(r2s[want], r2)) << k->name << " j=" << j;
          ++want;
        }
        EXPECT_EQ(got, want) << k->name << " m=" << m << " off=" << off;
      }
    }
  }
}

// A word that rounds up to 2^64 as a double becomes nextafter(1, 0), not
// 1.0: x = 2u - 1 is then 1 - 2^-52, and with y = 0 the candidate passes.
TEST(KernelReference, PolarCandidatesClampTopWordsBelowOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  for (const Kernels* k : tables()) {
    for (const std::uint64_t top : {UINT64_MAX, UINT64_MAX - 1023}) {
      // Five pairs, so the AVX2 path runs one 4-wide block and one tail.
      std::vector<std::uint64_t> u;
      for (int j = 0; j < 5; ++j) {
        u.push_back(top);
        u.push_back(std::uint64_t{1} << 63);
      }
      std::vector<double> xs(5, 7.0);
      std::vector<double> ys(5, 7.0);
      std::vector<double> r2s(5, 7.0);
      ASSERT_EQ(k->polar_candidates(u.data(), 5, xs.data(), ys.data(),
                                    r2s.data()),
                5u)
          << k->name;
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(bits(xs[j]), bits(2.0 * below_one - 1.0)) << k->name;
        EXPECT_EQ(bits(ys[j]), bits(0.0)) << k->name;
      }
    }
  }
}

}  // namespace
}  // namespace lumichat::simd
