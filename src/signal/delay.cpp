#include "signal/delay.hpp"

#include <algorithm>
#include <cmath>

#include "simd/dispatch.hpp"

namespace lumichat::signal {

Signal delay_signal(const Signal& x, double delay_samples) {
  if (x.empty()) return {};
  Signal out(x.size(), 0.0);
  simd::active().delay_linear(x.data(), x.size(), delay_samples, out.data());
  return out;
}

DelayedSignal delay_signal_checked(const Signal& x, double delay_samples) {
  DelayedSignal out;
  out.samples = delay_signal(x, delay_samples);
  if (x.empty()) return out;
  // out.samples[i] reads x at i - delay; it is real data (interpolated, not
  // edge-replicated) iff 0 <= i - delay <= n-1.
  const double n1 = static_cast<double>(x.size() - 1);
  const double lo = std::ceil(delay_samples);
  const double hi = std::floor(n1 + delay_samples);
  const double begin = std::clamp(lo, 0.0, n1 + 1.0);
  const double end = std::clamp(hi + 1.0, begin, n1 + 1.0);
  out.valid_begin = static_cast<std::size_t>(begin);
  out.valid_end = static_cast<std::size_t>(end);
  return out;
}

}  // namespace lumichat::signal
