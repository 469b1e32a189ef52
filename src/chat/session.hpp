// Full chat-session orchestration (Fig. 4, steps 1-5):
//   1. Alice records her facial video (AliceStream);
//   2. it travels Alice -> Bob (NetworkChannel) and is displayed on Bob's
//      screen;
//   3. Bob's side produces its outgoing video (RespondentModel — real face
//      reflecting the screen light, or an attacker's virtual camera);
//   4. Bob's video travels back Bob -> Alice;
//   5. Alice's detector consumes {her transmitted clip, the received clip}.
#pragma once

#include <cstddef>
#include <cstdint>

#include "chat/alice.hpp"
#include "chat/codec.hpp"
#include "chat/network.hpp"
#include "chat/respondent.hpp"
#include "chat/video.hpp"
#include "faults/fault_config.hpp"

namespace lumichat::chat {

struct SessionSpec {
  double duration_s = 15.0;    ///< clip length (paper Sec. VIII-A)
  double sample_rate_hz = 10.0;  ///< simulation tick == extraction rate
  /// Chat time simulated before recording starts. Detection triggers during
  /// an ongoing chat, so cameras have adapted and both screens show live
  /// video; without warm-up the connection transient (black screen -> first
  /// frame, exposure snap) would inject a spurious luminance change.
  double warmup_s = 3.0;
  NetworkSpec alice_to_bob{};
  NetworkSpec bob_to_alice{};
  /// Codec applied by the chat software on each direction. Note that the
  /// attacker's fake video also crosses Bob's encoder: the virtual camera
  /// replaces the *camera*, not the software's send path.
  CodecSpec codec{.compression = 0.25};
  /// Deterministic degradation of the session (burst loss, clock skew,
  /// codec collapse, resolution switches, ...). All severities default to 0,
  /// which is an exact no-op: traces are then bit-identical to a faultless
  /// build. Injector streams derive from the session seed, so one (spec,
  /// seed) pair always degrades the same way.
  faults::FaultConfig faults{};
};

/// What Alice's side observes during one detection window.
struct SessionTrace {
  VideoClip transmitted;  ///< Alice's own outgoing video (step 1)
  VideoClip received;     ///< Bob's video as it arrives at Alice (step 4)
};

/// Whole simulation ticks in `seconds` of chat at `rate_hz`, rounded to the
/// nearest tick. Every duration-to-ticks conversion goes through here.
/// Throws std::invalid_argument when seconds x rate is not finite, is
/// negative or does not fit a signed 64-bit count.
[[nodiscard]] std::size_t tick_count(double seconds, double rate_hz);

/// Runs one detection window and returns both clips.
///
/// `alice` and `respondent` keep their state across calls, so consecutive
/// runs continue the same chat (used by multi-round detection, Sec. VII-B).
[[nodiscard]] SessionTrace run_session(const SessionSpec& spec,
                                       AliceStream& alice,
                                       RespondentModel& respondent,
                                       std::uint64_t seed);

}  // namespace lumichat::chat
