// Immutable, versioned LOF model snapshot — the unit of model deployment.
//
// A snapshot is the fitted state of the paper's LOF classifier (Sec. VII-A,
// Eqs. 7-8): the legitimate-population training vectors and their per-point
// k-distances and local reachability densities. It is created fully fitted
// by fit(), never mutated afterwards, and handed out as
// std::shared_ptr<const LofModelSnapshot> — every session of the service
// shares one snapshot read-only instead of carrying its own copy of the
// training set, and a registry (registry.hpp) can atomically hot-swap the
// current version under live traffic because readers keep their handle
// alive for as long as they need it.
//
// k-NN queries are one linear scan over the training set. The paper trains
// on at most 20 legitimate instances per user (Fig. 15 sweeps 8 -> 20), so
// a spatial index has nothing to prune. The scan computes squared distances
// in bulk with the runtime-dispatched simd::Kernels::squared_dist4_batch,
// whose per-point operation sequence is pinned to euclidean()'s, selects
// the best k on (d², index), and reports sqrt(d²), which is bit-identical
// to euclidean(). sqrt is monotone, so (d², index) and (sqrt(d²), index)
// pick the same neighbours in the same order. LOF sums reach-distances and
// densities in neighbour order, so this order is part of the score's bits
// (the golden Fig. 11 regression pins them).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/features.hpp"

namespace lumichat::model {

using Point4 = std::array<double, 4>;

/// Distance metric of the LOF feature space. simd::Kernels::
/// squared_dist4_batch + sqrt reproduces it bit for bit.
[[nodiscard]] inline double euclidean(const Point4& a, const Point4& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// A (distance, training-point-index) candidate; ordered lexicographically,
/// which is how the scan breaks distance ties.
using Neighbor = std::pair<double, std::size_t>;

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
      std::uint64_t version = 0);

  /// LOF score of a query point (Eq. 8).
  [[nodiscard]] double score(const core::FeatureVector& z) const;

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] double tau() const { return tau_; }
  [[nodiscard]] std::size_t size() const { return training_.size(); }
  [[nodiscard]] bool fitted() const { return !training_.empty(); }

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

 private:
  LofModelSnapshot() = default;

  /// The k nearest training points to `q`, skipping index `exclude`,
  /// sorted ascending by (distance, index). Returns fewer than k only when
  /// fewer eligible points exist. `out` is cleared first.
  void knn(const Point4& q, std::size_t exclude,
           std::vector<Neighbor>& out) const;

  /// Eq. 7 on an arbitrary point given its neighbour list (which carries
  /// the exact query distances, in (distance, index) order).
  [[nodiscard]] double lrd_of(const std::vector<Neighbor>& neigh) const;
  /// Eq. 8 given the query's neighbour list.
  [[nodiscard]] double score_of(const std::vector<Neighbor>& neigh) const;

  std::uint64_t version_ = 0;
  std::size_t k_ = 5;
  double tau_ = 3.0;
  std::vector<core::FeatureVector> training_;
  /// Training coordinates split per axis (structure-of-arrays) so the batch
  /// distance kernel can stream whole-register loads.
  std::array<std::vector<double>, 4> soa_;
  std::vector<double> k_distance_;  ///< per training point
  std::vector<double> lrd_;         ///< per training point
};

/// Convenience: fit an (unregistered) snapshot with a DetectorConfig's
/// k/tau — the one-liner for attaching a private model without a registry.
[[nodiscard]] std::shared_ptr<const LofModelSnapshot> fit_lof_model(
    const core::DetectorConfig& config,
    std::vector<core::FeatureVector> training);

}  // namespace lumichat::model
