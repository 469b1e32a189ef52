#include "reenact/call.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "chat/alice.hpp"
#include "chat/respondent.hpp"
#include "common/rng.hpp"
#include "faults/plan.hpp"
#include "reenact/adaptive.hpp"
#include "reenact/reenactor.hpp"

namespace lumichat::reenact {
namespace {

constexpr std::uint64_t kScriptStream = 61;
constexpr std::uint64_t kAliceStream = 62;
constexpr std::uint64_t kDriftStream = 71;
constexpr std::uint64_t kSyntheticStream = 91;

/// Camera drift for capture device `stream` (1 = Alice, 2 = the peer),
/// bound from the faults the call is built with.
optics::ExposureDriftSpec camera_drift(const CallRecipe& recipe,
                                       std::uint64_t seed,
                                       std::uint64_t stream) {
  return faults::FaultPlan(recipe.session.faults,
                           common::derive_seed(seed, kDriftStream))
      .camera_drift(stream);
}

/// Metering script built as one independent probe round per `round_s`
/// (each segment keeps make_metering_script's tail margin, so no touch
/// lands so late that its reflection spills into the next round). This is
/// the paper's protocol shape — the verifier drives a probe sequence per
/// detection round (Sec. VII) — and it keeps mid-call windows free of
/// boundary-truncated probe/response pairs, which read exactly like a
/// missing reflection (a false attacker).
std::vector<chat::MeterEvent> make_round_script(double duration_s,
                                                double round_s,
                                                common::Rng& rng) {
  std::vector<chat::MeterEvent> script;
  double t0 = 0.0;
  do {
    std::vector<chat::MeterEvent> round =
        chat::make_metering_script(std::min(round_s, duration_s - t0), rng);
    // A later round must continue from where the previous one parked the
    // spot: a target flip at the exact round boundary has no visible
    // transmitted edge (no baseline before sample 0) but a mid-window
    // reflection — an unmatched received change that reads as an attacker.
    // Targets alternate window/shelf, so mirroring the whole round keeps
    // its gap structure while removing the boundary flip.
    if (!script.empty() && !round.empty() &&
        round.front().target != script.back().target) {
      for (chat::MeterEvent& e : round) {
        e.target = e.target == chat::MeterTarget::kWindow
                       ? chat::MeterTarget::kShelf
                       : chat::MeterTarget::kWindow;
      }
    }
    const bool drop_lead = !script.empty();  // boundary event is now a no-op
    for (std::size_t i = drop_lead ? 1 : 0; i < round.size(); ++i) {
      round[i].t_sec += t0;
      script.push_back(round[i]);
    }
    t0 += round_s;
  } while (t0 < duration_s);
  return script;
}

chat::AliceStream make_alice(const CallRecipe& recipe, std::uint64_t seed) {
  // A call whose length is no tick count has no script either: an infinite
  // one would never finish generating.
  (void)chat::tick_count(recipe.session.duration_s,
                         recipe.session.sample_rate_hz);
  chat::AliceSpec spec;
  // Alice's own face varies with the seed so no two calls show the same
  // verifier-side content.
  spec.face = face::make_volunteer_face(seed % 10);
  spec.camera.drift = camera_drift(recipe, seed, 1);
  common::Rng script_rng(common::derive_seed(seed, kScriptStream));
  auto script = make_round_script(recipe.session.duration_s,
                                  recipe.probe_round_s, script_rng);
  return chat::AliceStream(spec, std::move(script),
                           common::derive_seed(seed, kAliceStream));
}

std::unique_ptr<chat::RespondentModel> make_peer(const CallRecipe& recipe,
                                                 std::uint64_t seed,
                                                 PeerRole role) {
  const PeerStreams& streams = recipe.streams[static_cast<std::size_t>(role)];
  // Session-to-session variation: people do not sit at a fixed distance or
  // under identical lighting for every chat, and a target video was
  // plausibly recorded somewhere like the victim's usual setup. This is
  // what spreads legitimate feature vectors on the LOF hyperplane.
  common::Rng env_rng(common::derive_seed(seed, streams.environment));
  const double distance_m =
      recipe.peer_screen_distance_m * env_rng.uniform(0.8, 1.35);
  const double lux = recipe.peer_ambient_lux * env_rng.uniform(0.55, 1.7);
  const std::uint64_t peer_seed = common::derive_seed(seed, streams.peer);

  switch (role) {
    case PeerRole::kAttacker: {
      ReenactorSpec spec;
      spec.victim = recipe.victim;
      spec.target_env.screen = recipe.peer_screen;
      spec.target_env.screen_distance_m = distance_m;
      spec.target_env.ambient.lux_on_face = lux;
      return std::make_unique<ReenactmentAttacker>(spec, peer_seed);
    }
    case PeerRole::kAdaptiveAttacker: {
      AdaptiveAttackerSpec spec;
      spec.victim = recipe.victim;
      spec.screen = recipe.peer_screen;
      spec.screen_distance_m = distance_m;
      spec.ambient.lux_on_face = lux;
      spec.processing_delay_s = recipe.adaptive_delay_s;
      return std::make_unique<AdaptiveAttacker>(spec, peer_seed);
    }
    case PeerRole::kLegitimate:
      break;
  }
  chat::LegitimateSpec spec;
  spec.face = recipe.victim;
  spec.camera.drift = camera_drift(recipe, seed, 2);  // a real webcam
  spec.screen = recipe.peer_screen;
  spec.screen_distance_m = distance_m;
  spec.ambient.lux_on_face = lux;
  return std::make_unique<chat::LegitimateRespondent>(spec, peer_seed);
}

std::uint64_t session_seed(const CallRecipe& recipe, std::uint64_t seed,
                           PeerRole role) {
  return common::derive_seed(
      seed, recipe.streams[static_cast<std::size_t>(role)].session);
}

class SimulatedCall final : public CallSource {
 public:
  SimulatedCall(const CallRecipe& recipe, std::uint64_t seed, PeerRole role)
      : recipe_(recipe),
        seed_(seed),
        alice_(make_alice(recipe_, seed_)),
        source_(recipe_.session, alice_, peer(role),
                session_seed(recipe_, seed_, role)) {}

  chat::FramePair next() override { return source_.next(); }
  void set_actor(PeerRole role) override {
    source_.set_respondent(peer(role));
  }
  void apply_faults(const faults::FaultConfig& config,
                    std::uint64_t phase) override {
    source_.apply_faults(config, phase);
  }

 private:
  chat::RespondentModel& peer(PeerRole role) {
    auto& slot = peers_[static_cast<std::size_t>(role)];
    if (slot == nullptr) slot = make_peer(recipe_, seed_, role);
    return *slot;
  }

  CallRecipe recipe_;
  std::uint64_t seed_;
  chat::AliceStream alice_;
  std::array<std::unique_ptr<chat::RespondentModel>, 3> peers_;
  chat::SessionFrameSource source_;
};

class SyntheticCall final : public CallSource {
 public:
  SyntheticCall(double rate_hz, std::uint64_t seed, PeerRole role)
      : rate_hz_(rate_hz),
        attacker_(role != PeerRole::kLegitimate),
        rng_(common::derive_seed(seed, kSyntheticStream)),
        phase_(rng_.uniform(0.0, 6.28)) {}

  chat::FramePair next() override {
    const double t = static_cast<double>(tick_++) / rate_hz_;
    const double square = std::sin(0.8 * t + phase_) > 0.0 ? 1.0 : -1.0;
    const double tx = 120.0 + 55.0 * square + rng_.gaussian(0.0, 2.0);
    const double rx = attacker_ ? 110.0 + 45.0 * std::sin(1.7 * t + 1.0) +
                                      rng_.gaussian(0.0, 2.0)
                                : 0.5 * tx + 30.0 + rng_.gaussian(0.0, 1.0);
    return chat::FramePair{t, flat(tx), flat(rx)};
  }
  void set_actor(PeerRole role) override {
    attacker_ = role != PeerRole::kLegitimate;
  }
  void apply_faults(const faults::FaultConfig&, std::uint64_t) override {}

 private:
  static image::Image flat(double v) {
    return image::Image(8, 8, image::Pixel{v, v, v});
  }

  double rate_hz_;
  bool attacker_;
  common::Rng rng_;
  double phase_;
  std::uint64_t tick_ = 0;
};

}  // namespace

std::unique_ptr<CallSource> make_call(const CallRecipe& recipe,
                                      std::uint64_t seed, PeerRole role,
                                      bool full_chat) {
  if (full_chat) return std::make_unique<SimulatedCall>(recipe, seed, role);
  return std::make_unique<SyntheticCall>(recipe.session.sample_rate_hz, seed,
                                         role);
}

chat::SessionTrace record_call(const CallRecipe& recipe, std::uint64_t seed,
                               PeerRole role) {
  chat::AliceStream alice = make_alice(recipe, seed);
  const std::unique_ptr<chat::RespondentModel> peer =
      make_peer(recipe, seed, role);
  return chat::run_session(recipe.session, alice, *peer,
                           session_seed(recipe, seed, role));
}

}  // namespace lumichat::reenact
