// Dynamic-time-warping distance (feature z4, Sec. VI): the paper uses the
// maximum DTW distance between the two halves of the smoothed variance
// signals, divided by 30, to measure trend dissimilarity even under small
// temporal misalignment.
#pragma once

#include <span>

namespace lumichat::signal {

/// Classic unconstrained DTW distance with absolute-difference local cost.
/// Returns 0 for two empty inputs and +inf if exactly one input is empty
/// (nothing can align). The table is filled by the runtime-dispatched
/// simd::Kernels::dtw, identically on every kernel table.
[[nodiscard]] double dtw_distance(std::span<const double> x,
                                  std::span<const double> y);

}  // namespace lumichat::signal
