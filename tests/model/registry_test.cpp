// ModelRegistry: monotone versioning, RCU-style publication, and the
// reader-survives-hot-swap guarantee the service leans on. The concurrency
// tests run under the sanitizer CI tiers (unit label), so a data race here
// is a TSan failure, not a flake.
#include "model/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace lumichat::model {
namespace {

std::vector<core::FeatureVector> cloud(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<core::FeatureVector> out(n);
  for (auto& f : out) {
    f.z1 = rng.uniform(0.6, 1.0);
    f.z2 = rng.uniform(0.6, 1.0);
    f.z3 = rng.uniform(0.5, 0.95);
    f.z4 = rng.uniform(0.1, 0.5);
  }
  return out;
}

TEST(Registry, StartsEmpty) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.publish_count(), 0u);
}

TEST(Registry, PublishAssignsMonotoneVersions) {
  ModelRegistry registry;
  const auto v1 = registry.publish(cloud(10, 1), 5, 3.0);
  const auto v2 = registry.publish(cloud(12, 2), 5, 3.0);
  const auto v3 = registry.publish(cloud(14, 3), 5, 3.0);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v3->version(), 3u);
  EXPECT_EQ(registry.current().get(), v3.get());
  EXPECT_EQ(registry.version(), 3u);
  EXPECT_EQ(registry.publish_count(), 3u);
}

TEST(Registry, SeededConstructorAdoptsSnapshot) {
  const auto initial = LofModelSnapshot::fit(cloud(10, 4), 5, 3.0,
                                             /*version=*/41);
  ModelRegistry registry(initial);
  EXPECT_EQ(registry.current().get(), initial.get());
  EXPECT_EQ(registry.version(), 41u);
  // The monotone counter skips past the adopted version.
  const auto next = registry.publish(cloud(10, 5), 5, 3.0);
  EXPECT_GT(next->version(), 41u);
}

TEST(Registry, InstallKeepsVersionAndCounterSkips) {
  ModelRegistry registry;
  registry.publish(cloud(10, 6), 5, 3.0);  // v1
  const auto imported = LofModelSnapshot::fit(cloud(10, 7), 5, 3.0,
                                              /*version=*/10);
  registry.install(imported);
  EXPECT_EQ(registry.version(), 10u);
  const auto next = registry.publish(cloud(10, 8), 5, 3.0);
  EXPECT_EQ(next->version(), 11u);
}

TEST(Registry, OldHandleSurvivesPublish) {
  ModelRegistry registry;
  registry.publish(cloud(10, 9), 5, 3.0);
  const auto old_handle = registry.current();
  const auto old_score = old_handle->score(cloud(1, 99)[0]);
  registry.publish(cloud(30, 10), 5, 3.0);
  // The superseded snapshot is untouched: same object, same bits.
  EXPECT_EQ(old_handle->version(), 1u);
  EXPECT_EQ(old_handle->score(cloud(1, 99)[0]), old_score);
  EXPECT_NE(registry.current().get(), old_handle.get());
}

// The RCU contract: readers scoring against a handle they fetched before a
// hot-swap keep getting bit-stable answers from that snapshot while writers
// publish new versions underneath them. Run under TSan in CI.
TEST(Registry, ReadersSurviveConcurrentHotSwap) {
  ModelRegistry registry;
  registry.publish(cloud(24, 20), 5, 3.0);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scores_done{0};
  std::atomic<bool> mismatch{false};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&registry, &stop, &scores_done, &mismatch, r] {
      common::Rng rng(300 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = registry.current();
        core::FeatureVector z;
        z.z1 = rng.uniform(0.0, 1.4);
        z.z2 = rng.uniform(0.0, 1.4);
        z.z3 = rng.uniform(0.0, 1.4);
        z.z4 = rng.uniform(0.0, 1.4);
        // Score twice on the same handle: a swap between the calls must
        // not change what this reader sees.
        const double a = snap->score(z);
        const double b = snap->score(z);
        if (a != b || !std::isfinite(a)) {
          mismatch.store(true, std::memory_order_relaxed);
        }
        scores_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread writer([&registry, &stop] {
    for (std::size_t i = 0; i < 50; ++i) {
      registry.publish(cloud(24 + (i % 8), 400 + i), 5, 3.0);
    }
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(scores_done.load(), 0u);
  EXPECT_GE(registry.version(), 50u);
  const auto final_snap = registry.current();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_TRUE(final_snap->fitted());
}

}  // namespace
}  // namespace lumichat::model
