#include "core/lof.hpp"

#include <stdexcept>

namespace lumichat::core {

LofClassifier::LofClassifier(std::size_t k, double tau) : k_(k), tau_(tau) {
  if (k_ == 0) throw std::invalid_argument("LofClassifier: k must be >= 1");
}

void LofClassifier::fit(const std::vector<FeatureVector>& training) {
  snapshot_ = model::LofModelSnapshot::fit(training, k_, tau_);
}

void LofClassifier::attach(
    std::shared_ptr<const model::LofModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("LofClassifier::attach: null snapshot");
  }
  k_ = snapshot->k();
  tau_ = snapshot->tau();
  snapshot_ = std::move(snapshot);
}

double LofClassifier::score(const FeatureVector& z) const {
  if (!is_fitted()) {
    throw std::logic_error("LofClassifier::score: no model attached");
  }
  return snapshot_->score(z);
}

bool LofClassifier::is_attacker(const FeatureVector& z) const {
  return score(z) > tau_;
}

const std::vector<FeatureVector>& LofClassifier::training_data() const {
  static const std::vector<FeatureVector> kEmpty;
  return snapshot_ == nullptr ? kEmpty : snapshot_->training();
}

}  // namespace lumichat::core
