// Relative luminance per the paper's Eq. 3 (Rec. 709 weighting):
//   C = 0.2126 R + 0.7152 G + 0.0722 B
// (the paper's text prints the blue weight as "0.722"; that is a typo — the
// weights must sum to 1 and 0.0722 is the Rec. 709 value).
#pragma once

#include "image/image.hpp"

namespace lumichat::simd {
struct Kernels;
}

namespace lumichat::image {

inline constexpr double kLumaR = 0.2126;
inline constexpr double kLumaG = 0.7152;
inline constexpr double kLumaB = 0.0722;

/// Relative luminance of one pixel (Eq. 3).
[[nodiscard]] double luminance(const Pixel& p);

/// Mean luminance over a whole frame — the paper's "compress each frame of
/// the transmitted video into a single pixel" measurement.
[[nodiscard]] double frame_luminance(const Image& frame);

/// As above over an 8-bit frame; the bits of the widened Image's result.
[[nodiscard]] double frame_luminance(const ImageU8& frame);

/// Mean luminance over a region of interest (clipped to the frame).
/// Returns 0 for an empty intersection.
[[nodiscard]] double roi_luminance(const Image& frame, const Rect& roi);

/// Area-weighted mean luminance over a sub-pixel region (clipped to the
/// frame): boundary pixels contribute in proportion to their coverage, so
/// the result varies smoothly as the region moves. Returns 0 for an empty
/// intersection.
[[nodiscard]] double roi_luminance(const Image& frame, const RectF& roi);

/// As above, against an explicit kernel table instead of the process-wide
/// dispatch choice — lets bench_perf time the production ROI decomposition
/// under both tables within one process.
[[nodiscard]] double roi_luminance(const Image& frame, const RectF& roi,
                                   const simd::Kernels& kern);

/// The sub-pixel ROI mean over an 8-bit frame: each covered row is widened
/// to f64 and reduced exactly as the Image overloads reduce it, so the
/// result is the widened Image's, bit for bit.
[[nodiscard]] double roi_luminance(const ImageU8& frame, const RectF& roi);

}  // namespace lumichat::image
