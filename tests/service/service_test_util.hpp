// Shared helpers for the service-runtime test suites: a cheaply fitted LOF
// model (synthetic legitimate-looking features, short windows) published
// through a ModelRegistry, plus tiny flat frames, so lifecycle/concurrency
// tests never pay for face rendering or real dataset generation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/streaming.hpp"
#include "image/image.hpp"
#include "model/registry.hpp"

namespace lumichat::service::testutil {

inline std::vector<core::FeatureVector> legit_like(std::size_t n,
                                                   std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<core::FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::FeatureVector{1.0 - rng.uniform(0.0, 0.15),
                                      1.0 - rng.uniform(0.0, 0.15),
                                      0.9 - rng.uniform(0.0, 0.2),
                                      0.2 + rng.uniform(0.0, 0.2)});
  }
  return out;
}

/// Streaming config for test sessions: default detector, `window_s`
/// windows (default detector config: 10 Hz sampling, so a 2 s window
/// completes after 20 frames).
inline core::StreamingConfig test_streaming_config(double window_s = 2.0) {
  core::StreamingConfig cfg;
  cfg.window_s = window_s;
  return cfg;
}

/// Registry holding one published snapshot fit on `legit_like(20, seed)` —
/// the model every service test attaches to its sessions.
inline std::shared_ptr<model::ModelRegistry> trained_registry(
    std::uint64_t seed = 7) {
  auto registry = std::make_shared<model::ModelRegistry>();
  const core::DetectorConfig detector;
  registry->publish(legit_like(20, seed), detector.lof_neighbors,
                    detector.lof_threshold);
  return registry;
}

/// Trained StreamingDetector with `window_s` windows, for suites that build
/// a ServiceSession directly rather than through a SessionManager.
inline core::StreamingDetector trained_prototype(double window_s = 2.0,
                                                 std::uint64_t seed = 7) {
  const core::StreamingConfig cfg = test_streaming_config(window_s);
  core::StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, seed)));
  return sd;
}

/// 8x8 frame of uniform luminance `v`.
inline image::Image frame(double v) {
  return image::Image(8, 8, image::Pixel{v, v, v});
}

/// Luminance of the i-th frame of a deterministic varying sequence (keeps
/// per-window features non-degenerate without any rendering).
inline double wave(std::size_t i) {
  return 120.0 + 40.0 * ((i / 5) % 2 == 0 ? 1.0 : -1.0) +
         static_cast<double>(i % 5);
}

}  // namespace lumichat::service::testutil
