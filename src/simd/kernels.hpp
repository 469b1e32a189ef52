// Runtime-dispatched compute kernels for the per-frame hot path.
//
// Every per-frame stage of the defense — nasal-ROI luminance reduction over
// raw pixels, the FIR/Savitzky–Golay convolution chain, delay compensation,
// the Pearson and DTW trend statistics, and the 4-D LOF distance scans —
// bottoms out in one of the kernels below, as does the CRC-32 that seals
// every wire message (src/wire/crc32.hpp). So do the chat simulator's two
// per-pixel loops, camera develop and codec blend-quantize, and the
// engine-word and candidate steps of its standard-normal draws. Each
// kernel has two implementations (scalar and AVX2) selected once at
// startup (see dispatch.hpp), and the two must agree BIT FOR BIT on every
// input.
//
// Determinism contract (what makes bit-equality possible):
//
//  * Kernels that map independent outputs (convolve_same, correlate_same,
//    delay_linear, squared_dist4_batch) perform, per output, exactly the
//    same IEEE operation sequence in both paths; the AVX2 path merely
//    computes 4 outputs per instruction. Their results are also
//    bit-identical to the pre-SIMD per-sample loops they replaced.
//
//    camera_develop and codec_blend_quantize belong to this class too:
//    std::clamp and std::max keep their compare-and-select semantics on
//    signed zeros and NaN, and std::round (half away from zero) is
//    rebuilt from truncation, so .5 ties and results of -0.0 match.
//
//  * Reductions (sum, sum_sq_diff, pearson_accumulate, luminance_row_sum,
//    rgb_channel_sums) use a canonical widen-then-reduce order: the main
//    body is accumulated into W independent lanes (lane j takes elements
//    j, j+W, j+2W, ...), lanes are reduced pairwise in a fixed tree, and
//    the < W-element tail is added sequentially afterwards. The scalar
//    path emulates the W lanes with W scalar accumulators, so the order is
//    identical by construction. W is 4 for plain double reductions and 12
//    (three 4-lane registers over interleaved r,g,b) for pixel reductions.
//
//  * dtw fills a dynamic-programming table whose every cell is one fixed
//    operation sequence of three earlier cells and one input pair. The
//    scalar path walks it row by row; the AVX2 path walks anti-diagonals
//    (cells i + j = k do not depend on each other), 4 cells per
//    instruction. Each cell sees the same operands either way, so the two
//    agree bit for bit on every input, NaN, ±inf and -0.0 included.
//
//  * engine_words is integer arithmetic: both paths run the same
//    std::mt19937_64 code (the AVX2 one compiled for AVX2), so they yield
//    the same words and leave the engine in the same state.
//
//  * polar_candidates compacts the accepted candidates of a rejection
//    sampler; the u64 -> double conversion (hi·2³² + lo, one rounding)
//    and the accept test are exact, so both paths keep the same set.
//
//  * crc32_update is integer arithmetic over GF(2): any correct
//    implementation returns the same bits, so the two paths differ only in
//    speed (slicing-by-8 tables vs PCLMULQDQ folding).
//
//  * No FMA contraction: both kernel translation units are compiled with
//    -ffp-contract=off and the AVX2 path uses only mul/add intrinsics, so
//    a*b+c rounds twice in both paths.
//
// tests/simd/ property-tests bit-equality per kernel over randomized
// lengths (including sub-vector-width inputs and 1..7-lane tails) and
// unaligned spans; bench_perf --simd-json re-checks equality before
// recording per-kernel speedups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

namespace lumichat::simd {

/// Weighted sum of squared differences accumulator outputs, see
/// Kernels::pearson_accumulate.
struct PearsonSums {
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
};

/// Per-frame constants of Kernels::camera_develop (optics::CameraModel).
struct CameraDevelop {
  double wb[3] = {1.0, 1.0, 1.0};  ///< white-balance gain per r, g, b
  double gain = 0.0;               ///< exposure gain, LSB per unit
  double read_var = 0.0;           ///< read_noise_sigma²
  double shot_var = 0.0;           ///< shot_noise_coeff²
  bool quantize = true;            ///< round to integer LSB
};

/// Per-frame constants of Kernels::codec_blend_quantize (chat::VideoCodec).
struct CodecBlend {
  double keep = 1.0;  ///< weight of the original detail, 1 - 0.6·stress
  double mix = 0.0;   ///< weight of the block DC, 0.6·stress
  double q = 0.0;     ///< quantisation step; applied only when q > 0.5
};

/// One resolved kernel table. Obtain via simd::active() (runtime dispatch),
/// or simd::scalar_kernels() / simd::avx2_kernels() to pin a path (tests,
/// benches).
struct Kernels {
  /// Σ x[i] in canonical widen-4 order.
  double (*sum)(const double* x, std::size_t n);

  /// Σ (x[i] - m)² in canonical widen-4 order.
  double (*sum_sq_diff)(const double* x, std::size_t n, double m);

  /// Accumulates Σ dx·dy, Σ dx², Σ dy² (dx = x[i]-mx, dy = y[i]-my), each
  /// in canonical widen-4 order.
  PearsonSums (*pearson_accumulate)(const double* x, const double* y,
                                    std::size_t n, double mx, double my);

  /// "Same"-size convolution with edge-replicated (clamped) indexing:
  ///   y[i] = Σ_{k=0..m-1} taps[k] * x[clamp(i + m/2 - k, 0, n-1)]
  /// accumulated in ascending k per output. x and y must not alias.
  void (*convolve_same)(const double* x, std::size_t n, const double* taps,
                        std::size_t m, double* y);

  /// "Same"-size correlation with clamped indexing (the Savitzky–Golay
  /// orientation):
  ///   y[i] = Σ_{k=0..m-1} kern[k] * x[clamp(i - m/2 + k, 0, n-1)]
  /// accumulated in ascending k per output. x and y must not alias.
  void (*correlate_same)(const double* x, std::size_t n, const double* kern,
                         std::size_t m, double* y);

  /// Fractional delay via clamped linear interpolation: for each i,
  ///   t = clamp(i - delay_samples, 0, n-1);
  ///   out[i] = x[floor(t)]*(1-frac) + x[min(floor(t)+1, n-1)]*frac.
  /// x and out must not alias.
  void (*delay_linear)(const double* x, std::size_t n, double delay_samples,
                       double* out);

  /// Σ over `npix` interleaved r,g,b pixel triples of
  /// (r*kR + g*kG) + b*kB, in canonical widen-12 order (channel weights
  /// are folded into the lanes; tail pixels are added sequentially with
  /// the per-pixel grouping above). `rgb` points at npix*3 doubles.
  double (*luminance_row_sum)(const double* rgb, std::size_t npix,
                              double luma_r, double luma_g, double luma_b);

  /// Per-channel sums over `npix` interleaved r,g,b triples, canonical
  /// widen-12 order, written to out_rgb[0..2].
  void (*rgb_channel_sums)(const double* rgb, std::size_t npix,
                           double* out_rgb);

  /// Batched 4-D squared Euclidean distances against structure-of-arrays
  /// coordinates: out[i] = (((qx-xs[i])² + (qy-ys[i])²) + (qz-zs[i])²) +
  /// (qw-ws[i])², the exact pre-sqrt accumulation order of
  /// model::euclidean().
  void (*squared_dist4_batch)(const double* xs, const double* ys,
                              const double* zs, const double* ws,
                              std::size_t n, const double q[4], double* out);

  /// Dynamic-time-warping distance of x (n ≥ 1) and y (m ≥ 1) with
  /// absolute-difference local cost: D[0][0] = 0, D[i][0] = D[0][j] = +inf,
  /// and for i, j ≥ 1
  ///   best = std::min({D[i-1][j], D[i][j-1], D[i-1][j-1]});
  ///   D[i][j] = best == +inf ? +inf : std::fabs(x[i-1] - y[j-1]) + best.
  /// Returns D[n][m]. std::min keeps the first of equal (or unordered)
  /// candidates, which is the order the AVX2 path's two vminpd reproduce.
  double (*dtw)(const double* x, std::size_t n, const double* y,
                std::size_t m);

  /// Folds `len` bytes into a running CRC-32 state: IEEE 802.3, reflected
  /// polynomial 0xEDB88320, no pre/post inversion (the caller starts from
  /// 0xFFFFFFFF and XORs the final state, see wire/crc32.hpp). Chained
  /// calls over consecutive spans equal one call over their concatenation.
  std::uint32_t (*crc32_update)(std::uint32_t state, const std::uint8_t* data,
                                std::size_t len);

  /// Writes n consecutive words of `engine` to out, exactly as n calls of
  /// engine() would, and leaves the engine where those calls leave it. The
  /// word source of common::Rng::std_normal_fill.
  void (*engine_words)(std::mt19937_64& engine, std::uint64_t* out,
                       std::size_t n);

  /// Candidate step of the Marsaglia polar method, the part of
  /// common::Rng::std_normal_fill that runs per engine word. Candidate j
  /// maps words u[2j] and u[2j+1] to uniforms the way
  /// std::generate_canonical<double, 53> does on std::mt19937_64
  /// (hi·2³² + lo, times 2⁻⁶⁴, clamped to nextafter(1, 0)), then forms
  /// x = 2u-1, y = 2u-1, r2 = x*x + y*y. The candidates that pass
  /// !(r2 > 1 || r2 == 0) are written, compacted and in order, to
  /// xs/ys/r2s, which need room for m elements; returns how many passed.
  std::size_t (*polar_candidates)(const std::uint64_t* u, std::size_t m,
                                  double* xs, double* ys, double* r2s);

  /// Camera develop over `npix` interleaved r,g,b triples, with z holding
  /// one standard-normal draw per output. Per output c of channel k:
  ///   lsb = (rgb[c]*wb[k]) * gain;
  ///   sigma = sqrt(read_var + shot_var * std::max(0.0, lsb));
  ///   lsb += 0.0 + sigma*z[c];  lsb = std::clamp(lsb, 0.0, 255.0);
  ///   out[c] = quantize ? std::round(lsb) : lsb.
  void (*camera_develop)(const double* rgb, const double* z, std::size_t npix,
                         const CameraDevelop& p, double* out);

  /// Codec blend-quantize over n values with per-value block DC and block
  /// noise:  m = v[i]*keep + dc[i]*mix;  m += noise[i];
  ///   if (q > 0.5) m = std::round(m / q) * q;
  ///   out[i] = std::clamp(m, 0.0, 255.0).
  void (*codec_blend_quantize)(const double* v, const double* dc,
                               const double* noise, std::size_t n,
                               const CodecBlend& p, double* out);

  /// Human-readable name of this table ("scalar" / "avx2").
  const char* name;
};

namespace detail {
/// Lane widths of the canonical reduction orders (documented above; the
/// test suite uses these to build reference reducers).
inline constexpr std::size_t kReduceLanes = 4;
inline constexpr std::size_t kPixelLanes = 12;
}  // namespace detail

}  // namespace lumichat::simd
