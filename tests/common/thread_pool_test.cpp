#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lumichat::common {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, EnvVarOverridesThreadCount) {
  ASSERT_EQ(setenv("LUMICHAT_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  const ThreadPool pool;  // picks up the env var via the default argument
  EXPECT_EQ(pool.size(), 3u);
  ASSERT_EQ(unsetenv("LUMICHAT_THREADS"), 0);
}

TEST(ThreadPool, GarbageEnvVarFallsBackToHardware) {
  // Only default_thread_count() is called here: a pool built from a hostile
  // value would start that many threads if the parser let it through.
  ASSERT_EQ(unsetenv("LUMICHAT_THREADS"), 0);
  const std::size_t fallback = ThreadPool::default_thread_count();
  // A trailing-garbage value whose digits differ from the fallback, so a
  // prefix parse cannot pass by coincidence.
  const std::string prefix_trap = std::to_string(fallback + 1) + "x";
  for (const char* bad :
       {"banana", "-2", "0", "", "4x", "1e3", " 3", "+3",
        "99999999999999999999", prefix_trap.c_str()}) {
    ASSERT_EQ(setenv("LUMICHAT_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::default_thread_count(), fallback)
        << '"' << bad << '"';
  }
  ASSERT_EQ(unsetenv("LUMICHAT_THREADS"), 0);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> visits(1000, 0);
  pool.parallel_for(visits.size(),
                    [&](std::size_t i) { visits[i] += 1; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<int> visits(3, 0);
  pool.parallel_for(visits.size(), [&](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 3);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelForPropagatesTheException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i == 13) {
                            throw std::runtime_error("boom at 13");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolIsUsableAfterAnException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::logic_error("x"); }),
               std::logic_error);
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, SubmitDeliversResultThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitDeliversExceptionThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::invalid_argument("bad task"); });
  EXPECT_THROW((void)fut.get(), std::invalid_argument);
}

TEST(ThreadPool, ForEachIndexWithoutPoolRunsSerially) {
  std::vector<std::size_t> order;
  for_each_index(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ForEachIndexWithPoolMatchesSerialSlots) {
  ThreadPool pool(4);
  std::vector<double> serial(257, 0.0);
  std::vector<double> parallel(257, 0.0);
  const auto f = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  for_each_index(nullptr, serial.size(),
                 [&](std::size_t i) { serial[i] = f(i); });
  for_each_index(&pool, parallel.size(),
                 [&](std::size_t i) { parallel[i] = f(i); });
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace lumichat::common
