// Local-Outlier-Factor scorer (Sec. VII-A, Eqs. 7-8).
//
// Training data consists ONLY of legitimate users' feature vectors — no
// attacker data and no per-user enrollment, which is the paper's deployment
// advantage. A query vector is scored by comparing its local reachability
// density against that of its k nearest training neighbours; attackers land
// away from the legitimate cluster, yielding LOF >> 1, and are flagged when
// the score exceeds the decision threshold tau (default 3, Fig. 12).
//
// The fitted state (training set + per-point k-distances and densities)
// lives in an immutable model::LofModelSnapshot shared across every scorer
// that attaches it — a classifier is just a handle plus a locally tunable
// tau. fit() remains as a convenience that builds a private, unregistered
// snapshot; deployments publish snapshots through model::ModelRegistry and
// attach() them instead.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/features.hpp"
#include "model/snapshot.hpp"

namespace lumichat::core {

class LofClassifier {
 public:
  /// \param k   number of neighbours (paper: 5).
  /// \param tau decision threshold on the LOF score (paper: 3).
  explicit LofClassifier(std::size_t k = 5, double tau = 3.0);

  /// Convenience: fits a private snapshot on legitimate training vectors
  /// and attaches it. \throws std::invalid_argument if fewer than k+1
  /// vectors are given.
  void fit(const std::vector<FeatureVector>& training);

  /// Attaches a shared fitted model; adopts its k and calibrated tau
  /// (set_tau() afterwards still overrides locally). Rejects null.
  void attach(std::shared_ptr<const model::LofModelSnapshot> snapshot);

  /// The attached model (null before fit()/attach()).
  [[nodiscard]] const std::shared_ptr<const model::LofModelSnapshot>&
  snapshot() const {
    return snapshot_;
  }

  /// LOF score of a query vector (Eq. 8). ~1 inside the training cluster,
  /// larger the further outside it lies.
  [[nodiscard]] double score(const FeatureVector& z) const;

  /// True when `score(z) > tau` — the sample is claimed to be an attacker.
  [[nodiscard]] bool is_attacker(const FeatureVector& z) const;

  /// True when a fitted model (with a built index) is attached — a
  /// snapshot-backed classifier owns no training vectors of its own.
  [[nodiscard]] bool is_fitted() const {
    return snapshot_ != nullptr && snapshot_->fitted();
  }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] double tau() const { return tau_; }
  void set_tau(double tau) { tau_ = tau; }

  /// View into the attached snapshot's shared training set (empty before
  /// fit()/attach()). The data is owned by the snapshot, not this
  /// classifier — clones share it.
  [[nodiscard]] const std::vector<FeatureVector>& training_data() const;

 private:
  std::size_t k_;
  double tau_;
  std::shared_ptr<const model::LofModelSnapshot> snapshot_;
};

}  // namespace lumichat::core
