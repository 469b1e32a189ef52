#include "signal/dtw.hpp"

#include <limits>

#include "simd/dispatch.hpp"

namespace lumichat::signal {

double dtw_distance(std::span<const double> x, std::span<const double> y) {
  if (x.empty() && y.empty()) return 0.0;
  if (x.empty() || y.empty()) return std::numeric_limits<double>::infinity();
  return simd::active().dtw(x.data(), x.size(), y.data(), y.size());
}

}  // namespace lumichat::signal
