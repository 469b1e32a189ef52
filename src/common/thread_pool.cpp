#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <string>

#include "common/env.hpp"

namespace lumichat::common {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = default_thread_count();
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task-style wrappers capture their own exceptions
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // One claiming loop per worker (capped by n). Each claimed index is a
  // whole unit of work; the atomic counter balances load automatically
  // without any partitioning heuristics.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
  };
  auto shared = std::make_shared<Shared>();
  const auto run_indices = [shared, &fn, n]() {
    for (;;) {
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (shared->failed.load(std::memory_order_relaxed)) continue;  // drain
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared->error_mu);
        if (!shared->first_error) {
          shared->first_error = std::current_exception();
        }
        shared->failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t n_loops = std::min(size(), n);
  std::vector<std::future<void>> loops;
  loops.reserve(n_loops);
  // The caller participates too: with a single-thread pool that is busy,
  // parallel_for must still make progress, and on small n it avoids paying
  // a wake-up for work the calling thread could just do.
  for (std::size_t i = 0; i + 1 < n_loops; ++i) {
    loops.push_back(submit(run_indices));
  }
  run_indices();
  for (std::future<void>& f : loops) f.get();
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

std::size_t ThreadPool::default_thread_count() {
  if (const auto n = env_positive_integer("LUMICHAT_THREADS")) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace lumichat::common
