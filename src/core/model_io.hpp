// Trained-model persistence.
//
// The deployment story of the paper is "train once on a handful of
// legitimate clips, then ship" — which implies the trained state must move
// between processes/devices. The model is tiny (the LOF training vectors
// plus a few scalars), so a versioned, human-readable text format is the
// robust choice: diffable, greppable, no endianness traps.
//
// v3 format (one item per line) — carries the registry version id, so a
// reloaded snapshot stays attributable to the publish that produced it:
//   lumichat-lof v3
//   version <model version id>
//   k <neighbors>
//   tau <threshold>
//   n <vector count>
//   z <z1> <z2> <z3> <z4>     (n times)
//
// Any other version tag (v1, v2 included) is rejected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/features.hpp"
#include "model/snapshot.hpp"

namespace lumichat::core {

/// Serialisable trained-model state.
struct ModelState {
  std::size_t k = 5;
  double tau = 3.0;
  std::uint64_t version = 0;  ///< registry version id (0 = unregistered)
  std::vector<FeatureVector> training;
};

/// Writes `state` to a stream. \throws std::runtime_error on I/O
/// failure.
void save_model(const ModelState& state, std::ostream& out);
/// Writes `state` to a file. \throws std::runtime_error on I/O failure.
void save_model(const ModelState& state, const std::string& path);

/// Parses a model. \throws std::runtime_error on malformed input,
/// a truncated vector list or an unsupported version.
[[nodiscard]] ModelState load_model(std::istream& in);
[[nodiscard]] ModelState load_model(const std::string& path);

/// Fits an immutable snapshot from a loaded state — the deployment entry
/// point: hand the result to ModelRegistry::install() or attach_model().
[[nodiscard]] std::shared_ptr<const model::LofModelSnapshot>
snapshot_from_model(const ModelState& state);

/// Extracts the persistable state of a fitted snapshot (training set is
/// copied; the snapshot stays immutable and shared).
[[nodiscard]] ModelState model_state_of(
    const model::LofModelSnapshot& snapshot);

/// Extracts the persistable state from a detector configuration and
/// training features.
[[nodiscard]] ModelState model_state_of(const DetectorConfig& config,
                                        std::vector<FeatureVector> training);

}  // namespace lumichat::core
