// Fixed-size worker thread pool — the execution engine behind the parallel
// experiment layer (eval/parallel) and Detector::detect_batch.
//
// Design constraints, in order:
//   1. Determinism of callers: the pool never reorders *results*. parallel_for
//      hands each worker disjoint indices and callers write to preallocated
//      slots, so numeric output is bit-identical for any worker count —
//      including zero workers (the serial fallback used when no pool is
//      passed around).
//   2. Exception transparency: the first exception thrown by a task is
//      captured and rethrown on the calling thread once all tasks finished.
//   3. Zero config in the common case: the worker count defaults to the
//      LUMICHAT_THREADS environment variable, falling back to
//      std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace lumichat::common {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t n_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  /// Number of worker threads (always >= 1).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a nullary callable; the future carries its result or exception.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(
      F&& f) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Fire-and-forget enqueue: no future, no result slot. The dispatch hook
  /// for event-driven callers (the service FrameScheduler) that track
  /// completion themselves with an in-flight count, where a future per
  /// dispatched task would be pure allocation overhead. The task must not
  /// throw — there is nowhere to deliver the exception.
  void post(std::function<void()> task) { enqueue(std::move(task)); }

  /// Runs fn(i) for every i in [0, n), blocking until all calls returned.
  /// Indices are claimed from a shared atomic counter, so scheduling is
  /// nondeterministic but the index->call mapping is not; callers that write
  /// result i to slot i get thread-count-independent output. If any call
  /// throws, the first exception (in completion order) is rethrown here
  /// after the remaining indices have been drained.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// LUMICHAT_THREADS env var if it is a positive decimal integer (see
  /// env_positive_integer), else hardware_concurrency(), else 1.
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Serial-or-parallel index loop: uses `pool` when given, otherwise runs
/// fn(0..n-1) inline. The workhorse of every deterministic fan-out site —
/// call sites are written once and behave identically with or without a pool.
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

}  // namespace lumichat::common
