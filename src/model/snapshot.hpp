// Immutable, versioned LOF model snapshot — the unit of model deployment.
//
// A snapshot is the fitted state of the paper's LOF classifier (Sec. VII-A,
// Eqs. 7-8): the legitimate-population training vectors, their per-point
// k-distances and local reachability densities, and a KD-tree index over the
// 4-D feature space that answers the k-NN queries scoring needs. It is
// created fully fitted by fit(), never mutated afterwards, and handed out
// as std::shared_ptr<const LofModelSnapshot> — every session of the service
// shares one snapshot read-only instead of carrying its own copy of the
// training set, and a registry (registry.hpp) can atomically hot-swap the
// current version under live traffic because readers keep their handle
// alive for as long as they need it.
//
// Scoring contract: score() (indexed) and score_brute() (linear scan) are
// bit-identical by construction — both pull neighbours ordered by
// (distance, index) from the same distance function and accumulate in the
// same order. bench_lof_index gates this to <= 1e-12 on Fig. 11 inputs; the
// unit tests pin exact equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/features.hpp"
#include "model/kdtree.hpp"

namespace lumichat::model {

/// Default KD-tree leaf size; persisted by the v2 model format so a
/// reloaded model rebuilds the identical index.
inline constexpr std::size_t kDefaultIndexLeafSize = 16;

class LofModelSnapshot {
 public:
  /// Fits a snapshot on legitimate training vectors.
  /// \param training  legitimate feature vectors (>= k+1 of them).
  /// \param k         neighbour count (paper: 5).
  /// \param tau       decision threshold the model was calibrated for
  ///                  (paper: 3). Scorers may sweep their own tau; this is
  ///                  the published default.
  /// \param version   registry-assigned monotone id (0 = unregistered).
  /// \throws std::invalid_argument if k == 0 or fewer than k+1 vectors.
  [[nodiscard]] static std::shared_ptr<const LofModelSnapshot> fit(
      std::vector<core::FeatureVector> training, std::size_t k, double tau,
      std::uint64_t version = 0,
      std::size_t index_leaf_size = kDefaultIndexLeafSize);

  /// LOF score of a query point (Eq. 8), via the KD-tree index.
  [[nodiscard]] double score(const core::FeatureVector& z) const;

  /// Reference brute-force score — the pre-index code path, kept so tests
  /// and benches can gate indexed == brute on the same snapshot.
  [[nodiscard]] double score_brute(const core::FeatureVector& z) const;

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] double tau() const { return tau_; }
  [[nodiscard]] std::size_t size() const { return training_.size(); }
  [[nodiscard]] bool fitted() const { return !training_.empty(); }
  [[nodiscard]] std::size_t index_leaf_size() const {
    return index_.leaf_size();
  }

  /// The shared training set (what Detector::training_data() views).
  [[nodiscard]] const std::vector<core::FeatureVector>& training() const {
    return training_;
  }

  /// k-distance of training point i (distance to its k-th nearest other
  /// training point); exposed for diagnostics and tests.
  [[nodiscard]] double k_distance(std::size_t i) const {
    return k_distance_[i];
  }
  /// Local reachability density of training point i (Eq. 7).
  [[nodiscard]] double lrd(std::size_t i) const { return lrd_[i]; }

  [[nodiscard]] const KdTree4& index() const { return index_; }

 private:
  LofModelSnapshot() = default;

  /// Eq. 7 on an arbitrary point given its neighbour list (which carries
  /// the exact query distances, in (distance, index) order).
  [[nodiscard]] double lrd_of(const std::vector<Neighbor>& neigh) const;
  /// Eq. 8 given the query's neighbour list.
  [[nodiscard]] double score_of(const std::vector<Neighbor>& neigh) const;

  std::uint64_t version_ = 0;
  std::size_t k_ = 5;
  double tau_ = 3.0;
  std::vector<core::FeatureVector> training_;
  KdTree4 index_;
  std::vector<double> k_distance_;  ///< per training point
  std::vector<double> lrd_;         ///< per training point
};

/// Convenience: fit an (unregistered) snapshot with a DetectorConfig's
/// k/tau — the one-liner for attaching a private model without a registry.
[[nodiscard]] std::shared_ptr<const LofModelSnapshot> fit_lof_model(
    const core::DetectorConfig& config,
    std::vector<core::FeatureVector> training);

}  // namespace lumichat::model
