// Versioned model registry — RCU-style publication of LOF snapshots.
//
// The registry owns "which model is current" for a whole service. Readers
// (session creation, score paths) call current() and get a shared_ptr to an
// immutable snapshot: a pointer copy under a lock that writers hold only
// for the pointer swap, and the handle keeps the snapshot alive for as long
// as the reader uses it. Writers fit a new snapshot off to the side (the
// expensive part) and publish it with one pointer swap — sessions already
// running on the old version are never stalled, never see a half-built
// model, and simply retire their handle when they finish; the old snapshot
// frees itself when the last reader drops it. Versions are assigned
// monotonically at publish time, so explanation records and saved models
// can always be tied to the exact model that produced them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "model/snapshot.hpp"

namespace lumichat::model {

class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Starts with `initial` as the current model (e.g. a snapshot loaded
  /// from a model file, or one detached from a trained prototype).
  /// Accepts null (registry starts empty).
  explicit ModelRegistry(std::shared_ptr<const LofModelSnapshot> initial);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Fits a snapshot on `training` and atomically makes it current, with
  /// the next monotone version id. Returns the published snapshot.
  std::shared_ptr<const LofModelSnapshot> publish(
      std::vector<core::FeatureVector> training, std::size_t k, double tau);

  /// Atomically makes an already-fitted snapshot current (keeps its version
  /// id; the monotone counter skips past it so later publishes stay above).
  std::shared_ptr<const LofModelSnapshot> install(
      std::shared_ptr<const LofModelSnapshot> snapshot);

  /// The current model, or null if nothing has been published. Never waits
  /// on a fit; the returned handle stays valid across any concurrent
  /// publish.
  [[nodiscard]] std::shared_ptr<const LofModelSnapshot> current() const {
    const std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Version of the current model (0 when empty or unregistered).
  [[nodiscard]] std::uint64_t version() const {
    const auto snap = current();
    return snap == nullptr ? 0 : snap->version();
  }

  /// Total snapshots published/installed into this registry.
  [[nodiscard]] std::uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }

  // --- Swap observation -------------------------------------------------

  /// Called (under the writer lock) each time a snapshot becomes current,
  /// with the new version. Keeps the model layer free of any metrics
  /// dependency; the telemetry plane installs a hook that bumps a
  /// `model.publishes` counter and a `model.version` gauge.
  using SwapHook = void (*)(void* ctx, std::uint64_t version);

  /// Installs (or, with nullptr, removes) the swap hook. Not synchronised
  /// against in-flight publishes — set it up before the registry serves
  /// concurrent writers.
  void set_swap_hook(SwapHook hook, void* ctx) {
    swap_hook_ = hook;
    swap_ctx_ = ctx;
  }

 private:
  /// Makes `snapshot` current; the old one is released outside the lock.
  void make_current(std::shared_ptr<const LofModelSnapshot> snapshot);

  void notify_swap(std::uint64_t version) {
    if (swap_hook_ != nullptr) swap_hook_(swap_ctx_, version);
  }

  SwapHook swap_hook_ = nullptr;
  void* swap_ctx_ = nullptr;

  // A mutex rather than std::atomic<std::shared_ptr>: libstdc++ 12's
  // atomic load releases its internal lock bit with relaxed order, a data
  // race ThreadSanitizer reports against every concurrent publish.
  mutable std::mutex current_mu_;  ///< held only to copy or swap current_
  std::shared_ptr<const LofModelSnapshot> current_;
  std::atomic<std::uint64_t> publish_count_{0};

  std::mutex mu_;  ///< serialises writers (publish/install)
  std::uint64_t last_version_ = 0;
};

}  // namespace lumichat::model
