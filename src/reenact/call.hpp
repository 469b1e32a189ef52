// One simulated video call (Fig. 4, Sec. VIII-A), built from one seed.
//
// Alice (face `seed % 10`, metering script, camera drift), a peer who is
// the real volunteer in front of a screen or an attacker behind a virtual
// camera (environment: screen distance x U(0.8, 1.35), then ambient lux x
// U(0.55, 1.7)) and a chat::SessionFrameSource between them. The dataset,
// the service load generator and the scenario engine build every call here.
//
// Seed streams, each derive_seed(call seed, id):
//
//   61  Alice's metering script       62  Alice's stream (content, noise)
//   71  camera drift plan (Alice's camera is stream 1, the peer's 2)
//   91  the synthetic stand-in's waveform
//
// and per peer role: the peer itself, its environment draw and the
// transport (kSwappablePeerStreams is the scenario engine's layout):
//
//                     peer  kCallStreams            kSwappablePeerStreams
//   legitimate peer    63   env 69, transport 64    env 69, transport 72
//   reenactor          65   env 69, transport 66    env 68, transport 72
//   adaptive attacker  67   env 69, transport 68    env 69, transport 72
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>

#include "chat/frame_source.hpp"
#include "chat/session.hpp"
#include "face/face_model.hpp"
#include "faults/fault_config.hpp"
#include "optics/screen.hpp"

namespace lumichat::reenact {

/// Who answers on the far side of the call.
enum class PeerRole : std::uint8_t {
  kLegitimate = 0,        ///< the real volunteer in front of a real screen
  kAttacker = 1,          ///< ICFace-style reenactor behind a virtual camera
  kAdaptiveAttacker = 2,  ///< Sec. VIII-J attacker forging the reflection
};

/// Seed-stream ids of one peer role (see the table above).
struct PeerStreams {
  std::uint64_t environment = 0;
  std::uint64_t peer = 0;
  std::uint64_t session = 0;  ///< transport, when this role answers first
};

/// Seed-stream ids of a call, indexed by PeerRole.
using CallStreams = std::array<PeerStreams, 3>;

/// One peer per call: the dataset and the load generator.
inline constexpr CallStreams kCallStreams{
    {{69, 63, 64}, {69, 65, 66}, {69, 67, 68}}};
/// The scenario engine's: a mid-call takeover puts both peers in one call,
/// so their environment draws are decorrelated and the transport belongs
/// to neither.
inline constexpr CallStreams kSwappablePeerStreams{
    {{69, 63, 72}, {68, 65, 72}, {69, 67, 72}}};

/// What a call is built from, besides its seed and who answers.
struct CallRecipe {
  /// Length, tick rate, warm-up, links, codec and faults. The faults at
  /// construction also fix both cameras' drift; later apply_faults() calls
  /// re-plan only the link, codec and resolution injectors.
  chat::SessionSpec session{};
  /// The peer's face: the legitimate user, or whom the attackers forge.
  face::FaceModel victim = face::make_volunteer_face(0);
  /// The peer-side setup each call perturbs (distance and lux draws).
  optics::ScreenSpec peer_screen = optics::dell_27in_led();
  double peer_screen_distance_m = 0.55;
  double peer_ambient_lux = 60.0;
  /// Forgery delay of the adaptive attacker (Fig. 17).
  double adaptive_delay_s = 0.0;
  /// Alice runs one independent probe round per `probe_round_s` (positive;
  /// the scenario engine's detection window); a round at least as long as
  /// the call is one make_metering_script over the whole call.
  double probe_round_s = std::numeric_limits<double>::infinity();
  CallStreams streams = kCallStreams;
};

/// One call's frame producer, with the two mid-call hooks a scenario
/// timeline needs.
class CallSource {
 public:
  virtual ~CallSource() = default;
  CallSource() = default;
  CallSource(const CallSource&) = delete;
  CallSource& operator=(const CallSource&) = delete;
  CallSource(CallSource&&) = delete;
  CallSource& operator=(CallSource&&) = delete;

  /// The next simultaneous (transmitted, received) pair; the first call
  /// runs the warm-up.
  [[nodiscard]] virtual chat::FramePair next() = 0;
  /// Swaps who answers from the next tick on (a takeover or a restore).
  virtual void set_actor(PeerRole role) = 0;
  /// Re-plans the degradations from the next tick on, as
  /// chat::SessionFrameSource::apply_faults.
  virtual void apply_faults(const faults::FaultConfig& config,
                            std::uint64_t phase) = 0;
};

/// Call `seed` answered by `role`. With `full_chat`, the full simulation
/// (faces, optics, codec, network): Alice and the transport persist for
/// the whole call and each peer is built the first time it answers, so a
/// takeover swaps only the face source. Without, the synthetic stand-in:
/// 8x8 flat frames whose luminance follows a square-ish wave, correlated
/// with the transmitted signal while the legitimate peer answers; its
/// apply_faults() is a no-op. Throws std::invalid_argument (full chat only)
/// when the session's duration or warm-up is not a chat::tick_count.
[[nodiscard]] std::unique_ptr<CallSource> make_call(const CallRecipe& recipe,
                                                    std::uint64_t seed,
                                                    PeerRole role,
                                                    bool full_chat);

/// The first `recipe.session.duration_s` of call `seed` as two clips:
/// chat::run_session over the call's Alice and peer. Throws as make_call.
[[nodiscard]] chat::SessionTrace record_call(const CallRecipe& recipe,
                                             std::uint64_t seed,
                                             PeerRole role);

}  // namespace lumichat::reenact
