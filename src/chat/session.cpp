#include "chat/session.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "chat/frame_source.hpp"

namespace lumichat::chat {

std::size_t tick_count(double seconds, double rate_hz) {
  const double ticks = seconds * rate_hz;
  // 2^63: the first double past the signed 64-bit range llround maps into.
  if (!std::isfinite(ticks) || ticks < 0.0 || ticks >= 0x1p63) {
    throw std::invalid_argument(
        "tick_count: seconds x rate is not a finite, non-negative count");
  }
  return static_cast<std::size_t>(std::llround(ticks));
}

SessionTrace run_session(const SessionSpec& spec, AliceStream& alice,
                         RespondentModel& respondent, std::uint64_t seed) {
  const std::size_t ticks = tick_count(spec.duration_s, spec.sample_rate_hz);

  SessionFrameSource source(spec, alice, respondent, seed);

  SessionTrace trace;
  trace.transmitted.sample_rate_hz = spec.sample_rate_hz;
  trace.received.sample_rate_hz = spec.sample_rate_hz;
  trace.transmitted.frames.reserve(ticks);
  trace.received.frames.reserve(ticks);

  for (std::size_t i = 0; i < ticks; ++i) {
    FramePair pair = source.next();  // first call runs the warm-up
    trace.received.frames.push_back(std::move(pair.received));
    trace.transmitted.frames.push_back(std::move(pair.transmitted));
  }
  return trace;
}

}  // namespace lumichat::chat
