#include "model/registry.hpp"

namespace lumichat::model {

ModelRegistry::ModelRegistry(
    std::shared_ptr<const LofModelSnapshot> initial) {
  if (initial != nullptr) install(std::move(initial));
}

void ModelRegistry::make_current(
    std::shared_ptr<const LofModelSnapshot> snapshot) {
  const std::lock_guard<std::mutex> lock(current_mu_);
  current_.swap(snapshot);
}

std::shared_ptr<const LofModelSnapshot> ModelRegistry::publish(
    std::vector<core::FeatureVector> training, std::size_t k, double tau) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t version = last_version_ + 1;
  // Fitting happens outside any reader-visible state; readers keep scoring
  // on the old snapshot until the swap below.
  std::shared_ptr<const LofModelSnapshot> snap =
      LofModelSnapshot::fit(std::move(training), k, tau, version);
  last_version_ = version;
  make_current(snap);
  publish_count_.fetch_add(1, std::memory_order_relaxed);
  notify_swap(version);
  return snap;
}

std::shared_ptr<const LofModelSnapshot> ModelRegistry::install(
    std::shared_ptr<const LofModelSnapshot> snapshot) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (snapshot->version() > last_version_) last_version_ = snapshot->version();
  make_current(snapshot);
  publish_count_.fetch_add(1, std::memory_order_relaxed);
  notify_swap(snapshot->version());
  return snapshot;
}

}  // namespace lumichat::model
