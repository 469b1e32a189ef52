// Dataset generation — the simulated counterpart of Sec. VIII-A's testbed.
//
// A SimulationProfile fixes every environmental knob (screen, distance,
// ambient light, network, detector config, master seed). The DatasetBuilder
// then produces session traces / feature vectors for any volunteer in
// either role:
//   * legitimate: the volunteer sits in front of the screen; the defense
//     should accept them;
//   * attacker:   an ICFace-style reenactor impersonates the volunteer; the
//     defense should reject it;
//   * adaptive:   the Sec. VIII-J strong attacker who forges the reflection
//     with a given processing delay.
// Every clip is seeded deterministically from (master seed, volunteer, role,
// clip index), so experiments are reproducible and clip sets never collide.
#pragma once

#include <cstdint>
#include <vector>

#include "chat/session.hpp"
#include "core/detector.hpp"
#include "eval/population.hpp"
#include "faults/fault_config.hpp"
#include "optics/screen.hpp"
#include "reenact/call.hpp"

namespace lumichat::eval {

struct SimulationProfile {
  /// Clip length and tick rate; tick rate doubles as the extraction rate.
  double clip_duration_s = 15.0;
  double sample_rate_hz = 10.0;

  chat::NetworkSpec alice_to_bob{};
  chat::NetworkSpec bob_to_alice{};

  /// Bob-side physical setup (what Figs. 13 / VIII-I sweep).
  optics::ScreenSpec bob_screen = optics::dell_27in_led();
  double bob_screen_distance_m = 0.55;
  double bob_ambient_lux = 60.0;

  /// Detector configuration (tau, k, windows, ...).
  core::DetectorConfig detector{};

  /// Deterministic degradations injected into every session built from this
  /// profile (link faults, codec collapse, resolution switches via the
  /// SessionSpec; camera drift applied to the real cameras). All-zero
  /// severities (the default) are an exact no-op.
  faults::FaultConfig faults{};

  std::uint64_t master_seed = 42;

  /// Returns the session spec implied by this profile.
  [[nodiscard]] chat::SessionSpec session_spec() const;
  /// Detector config with the profile's sampling rate applied.
  [[nodiscard]] core::DetectorConfig detector_config() const;
};

/// Who answers the clip's call: kLegitimate, kAttacker or kAdaptiveAttacker.
using Role = reenact::PeerRole;

class DatasetBuilder {
 public:
  explicit DatasetBuilder(SimulationProfile profile);

  /// One legitimate-session trace for volunteer `v`, clip `clip_idx`.
  [[nodiscard]] chat::SessionTrace legit_trace(const Volunteer& v,
                                               std::size_t clip_idx) const;

  /// One reenactment-attack trace impersonating volunteer `v`.
  [[nodiscard]] chat::SessionTrace attacker_trace(const Volunteer& v,
                                                  std::size_t clip_idx) const;

  /// One adaptive-attack trace with the given forgery delay (Fig. 17).
  [[nodiscard]] chat::SessionTrace adaptive_trace(const Volunteer& v,
                                                  std::size_t clip_idx,
                                                  double delay_s) const;

  /// Feature vector of one clip of volunteer `v` in `role`. Every clip is a
  /// pure function of (profile, v, role, clip_idx), which is what lets the
  /// parallel engine compute clips in any order on any thread.
  [[nodiscard]] core::FeatureVector feature(const Volunteer& v, Role role,
                                            std::size_t clip_idx,
                                            double adaptive_delay_s = 0.0)
      const;

  /// Feature vectors for `n_clips` clips of volunteer `v` in `role`.
  [[nodiscard]] std::vector<core::FeatureVector> features(
      const Volunteer& v, Role role, std::size_t n_clips,
      double adaptive_delay_s = 0.0) const;

  /// A detector configured per the profile (untrained).
  [[nodiscard]] core::Detector make_detector() const;

  [[nodiscard]] const SimulationProfile& profile() const { return profile_; }

 private:
  [[nodiscard]] std::uint64_t clip_seed(const Volunteer& v, Role role,
                                        std::size_t clip_idx) const;
  /// The clip's call, recorded: a pure function of (profile, v, role,
  /// clip_idx, adaptive_delay_s).
  [[nodiscard]] chat::SessionTrace trace(const Volunteer& v, Role role,
                                         std::size_t clip_idx,
                                         double adaptive_delay_s) const;

  SimulationProfile profile_;
  core::Detector featurizer_;  // used only for featurize(); never trained
};

}  // namespace lumichat::eval
