// Event-driven drain loop over the shared ThreadPool.
//
// Feeders mark sessions ready via notify(); pump() dispatches one drain task
// per ready session onto the pool (ThreadPool::post — fire and forget, the
// scheduler tracks completion with an in-flight count) and keeps going until
// the service is idle. The ready-flag protocol in ServiceSession guarantees
// a session is never drained by two tasks at once, so a session's frames are
// processed in feed order regardless of worker count — the property the
// service-level determinism regression pins down. Sessions that received
// frames *while* being drained re-enter the ready set, so no frame can be
// stranded between pumps.
//
// notify() is safe from any thread; pump() is a single-driver call (one
// pumping thread at a time — the event loop of the embedding server).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"

namespace lumichat::service {

class FrameScheduler {
 public:
  /// With a null pool the scheduler drains inline on the pumping thread —
  /// the serial reference the determinism checks compare against.
  explicit FrameScheduler(common::ThreadPool* pool = nullptr) : pool_(pool) {}

  FrameScheduler(const FrameScheduler&) = delete;
  FrameScheduler& operator=(const FrameScheduler&) = delete;

  /// Marks `session` as having pending frames. Idempotent while the session
  /// is already queued or being drained.
  void notify(const std::shared_ptr<ServiceSession>& session);

  /// Drains ready sessions until none remain and no drain is in flight.
  /// Returns the number of frames processed by this pump.
  std::size_t pump();

  /// Sessions currently queued for draining (diagnostic).
  [[nodiscard]] std::size_t ready_count() const;

  [[nodiscard]] common::ThreadPool* pool() const { return pool_; }

  /// Adds the scheduler.pumps and scheduler.drain_tasks counts to `s`.
  void append_counters(obs::RegistrySnapshot& s) const;

 private:
  /// Runs the drain protocol for one session and returns frames processed.
  /// Decrements in_flight_ last, so pump() cannot observe idle early.
  void drain_task(const std::shared_ptr<ServiceSession>& session,
                  std::atomic<std::size_t>& processed);

  common::ThreadPool* pool_;
  obs::Counter pumps_;
  obs::Counter drain_tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<ServiceSession>> ready_;  // guarded by mu_
  std::size_t in_flight_ = 0;                           // guarded by mu_
  /// pump()'s dispatch staging area. Only the (single) pumping thread
  /// touches it; a member so its capacity survives across rounds.
  std::vector<std::shared_ptr<ServiceSession>> batch_;
};

}  // namespace lumichat::service
