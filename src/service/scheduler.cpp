#include "service/scheduler.hpp"

#include <atomic>
#include <utility>

namespace lumichat::service {

void FrameScheduler::notify(const std::shared_ptr<ServiceSession>& session) {
  if (session == nullptr || !session->try_mark_ready()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  ready_.push_back(session);
}

void FrameScheduler::drain_task(
    const std::shared_ptr<ServiceSession>& session,
    std::atomic<std::size_t>& processed) {
  const std::size_t n = session->drain();
  const bool again = session->finish_drain();
  processed.fetch_add(n, std::memory_order_relaxed);
  drain_tasks_.add();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (again) ready_.push_back(session);  // still owns the ready flag
    --in_flight_;
    // Notify while holding mu_: once the last task drops in_flight_ to 0,
    // pump() may return and the scheduler may be destroyed — the pumping
    // thread can only get that far by acquiring mu_, which orders the
    // destruction after this task's final touch of cv_.
    cv_.notify_all();
  }
}

std::size_t FrameScheduler::pump() {
  pumps_.add();
  std::atomic<std::size_t> processed{0};
  for (;;) {
    batch_.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (ready_.empty()) {
        if (in_flight_ == 0) break;  // idle: nothing queued, nothing running
        cv_.wait(lock,
                 [this] { return in_flight_ == 0 || !ready_.empty(); });
        continue;
      }
      // Swap, don't move: ready_ inherits batch_'s retained capacity, so
      // steady-state pumping recycles two buffers instead of allocating a
      // fresh vector per round (part of the zero-allocation ingest path).
      std::swap(batch_, ready_);
      in_flight_ += batch_.size();
    }
    for (const std::shared_ptr<ServiceSession>& session : batch_) {
      if (pool_ != nullptr) {
        pool_->post([this, session, &processed] {
          drain_task(session, processed);
        });
      } else {
        drain_task(session, processed);
      }
    }
  }
  // The loop only exits once in_flight_ hit 0 under mu_, which every
  // drain_task reaches *after* its fetch_add — the count is complete.
  return processed.load(std::memory_order_relaxed);
}

void FrameScheduler::append_counters(obs::RegistrySnapshot& s) const {
  s.add_counter("scheduler.pumps", pumps_.value());
  s.add_counter("scheduler.drain_tasks", drain_tasks_.value());
}

std::size_t FrameScheduler::ready_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

}  // namespace lumichat::service
