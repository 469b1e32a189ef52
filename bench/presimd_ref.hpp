#pragma once

// Faithful reproductions of the pre-SIMD hot-path loops, kept so
// bench_perf's --simd-json mode can record the genuine before/after of the
// dispatch layer. These are the loops the kernels in src/simd replaced:
//
//  * reductions (sum / pearson / ROI luminance) accumulated into single
//    serial chains — latency-bound, with no instruction-level parallelism;
//  * the LOF k-NN scan called euclidean() — including its sqrt — for
//    every candidate, one at a time, interleaved with heap maintenance;
//  * the wire CRC-32 ran one byte at a time through a 256-entry table.
//
// The TU is compiled with -fno-tree-vectorize (see bench/CMakeLists.txt):
// the original code was not auto-vectorizable (serial FP reductions cannot
// be reordered; the distance loop was broken up by heap logic), so letting
// the compiler vectorize these batched reproductions would overstate the
// baseline.

#include <cstddef>
#include <cstdint>

#include "image/image.hpp"

namespace lumichat::bench {

/// The original roi_luminance(RectF) verbatim: per-pixel coverage weights
/// (min/max/multiply for every pixel) feeding single serial accumulators.
/// The replacement hoists coverage out of the interior run and reduces it
/// with the dispatched row kernel.
double presimd_roi_luminance(const image::Image& frame,
                             const image::RectF& roi);

double presimd_sum(const double* x, std::size_t n);

/// Accumulates sxy/sxx/syy around the precomputed means, one sample at a
/// time, into `out[3]` — the original pearson() inner loop.
void presimd_pearson(const double* x, const double* y, std::size_t n,
                     double mx, double my, double out[3]);

/// Single-accumulator `acc += lr*r + lg*g + lb*b` over packed RGB pixels —
/// the original roi_luminance inner loop body.
double presimd_luminance_row(const double* rgb, std::size_t npix, double lr,
                             double lg, double lb);

/// Per-candidate euclidean distance (including the sqrt) against an
/// array-of-structs point set — the original LOF k-NN scan's distance
/// computation. `aos` holds n points of 4 contiguous doubles each.
void presimd_euclidean_batch(const double* aos, std::size_t n,
                             const double q[4], double* out);

/// The original wire crc32_update: one table lookup per byte, a serial
/// dependency chain through the running state.
std::uint32_t presimd_crc32_update(std::uint32_t state,
                                   const std::uint8_t* data, std::size_t len);

}  // namespace lumichat::bench
