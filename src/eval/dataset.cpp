#include "eval/dataset.hpp"

#include "common/rng.hpp"

namespace lumichat::eval {

chat::SessionSpec SimulationProfile::session_spec() const {
  chat::SessionSpec s;
  s.duration_s = clip_duration_s;
  s.sample_rate_hz = sample_rate_hz;
  s.alice_to_bob = alice_to_bob;
  s.bob_to_alice = bob_to_alice;
  s.faults = faults;
  return s;
}

core::DetectorConfig SimulationProfile::detector_config() const {
  core::DetectorConfig c = detector;
  c.sample_rate_hz = sample_rate_hz;
  return c;
}

DatasetBuilder::DatasetBuilder(SimulationProfile profile)
    : profile_(profile), featurizer_(profile_.detector_config()) {}

std::uint64_t DatasetBuilder::clip_seed(const Volunteer& v, Role role,
                                        std::size_t clip_idx) const {
  // Decorrelated stream per (volunteer, role, clip).
  const std::uint64_t stream =
      v.id * 100000ULL + static_cast<std::uint64_t>(role) * 10000ULL +
      clip_idx;
  return common::derive_seed(profile_.master_seed, stream);
}

chat::SessionTrace DatasetBuilder::trace(const Volunteer& v, Role role,
                                         std::size_t clip_idx,
                                         double adaptive_delay_s) const {
  reenact::CallRecipe recipe;
  recipe.session = profile_.session_spec();
  recipe.victim = v.face;  // the volunteer, or whom the attacker forges
  recipe.peer_screen = profile_.bob_screen;
  recipe.peer_screen_distance_m = profile_.bob_screen_distance_m;
  recipe.peer_ambient_lux = profile_.bob_ambient_lux;
  recipe.adaptive_delay_s = adaptive_delay_s;
  return reenact::record_call(recipe, clip_seed(v, role, clip_idx), role);
}

chat::SessionTrace DatasetBuilder::legit_trace(const Volunteer& v,
                                               std::size_t clip_idx) const {
  return trace(v, Role::kLegitimate, clip_idx, 0.0);
}

chat::SessionTrace DatasetBuilder::attacker_trace(const Volunteer& v,
                                                  std::size_t clip_idx) const {
  return trace(v, Role::kAttacker, clip_idx, 0.0);
}

chat::SessionTrace DatasetBuilder::adaptive_trace(const Volunteer& v,
                                                  std::size_t clip_idx,
                                                  double delay_s) const {
  return trace(v, Role::kAdaptiveAttacker, clip_idx, delay_s);
}

core::FeatureVector DatasetBuilder::feature(const Volunteer& v, Role role,
                                            std::size_t clip_idx,
                                            double adaptive_delay_s) const {
  return featurizer_.featurize(trace(v, role, clip_idx, adaptive_delay_s))
      .features;
}

std::vector<core::FeatureVector> DatasetBuilder::features(
    const Volunteer& v, Role role, std::size_t n_clips,
    double adaptive_delay_s) const {
  std::vector<core::FeatureVector> out;
  out.reserve(n_clips);
  for (std::size_t i = 0; i < n_clips; ++i) {
    out.push_back(feature(v, role, i, adaptive_delay_s));
  }
  return out;
}

core::Detector DatasetBuilder::make_detector() const {
  return core::Detector(profile_.detector_config());
}

}  // namespace lumichat::eval
