// LofModelSnapshot: fitting, immutable sharing, and the k-NN scan's
// (distance, index) neighbour order, which LOF's sums follow and the golden
// regressions pin bit for bit.
#include "model/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"

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

TEST(Snapshot, FitRejectsDegenerateInputs) {
  EXPECT_THROW((void)LofModelSnapshot::fit(cloud(10, 1), 0, 3.0),
               std::invalid_argument);
  EXPECT_THROW((void)LofModelSnapshot::fit(cloud(5, 1), 5, 3.0),
               std::invalid_argument);
  // k comes from model files too; k + 1 must not wrap to 0.
  EXPECT_THROW((void)LofModelSnapshot::fit(
                   cloud(10, 1), std::numeric_limits<std::size_t>::max(), 3.0),
               std::invalid_argument);
  EXPECT_NO_THROW((void)LofModelSnapshot::fit(cloud(6, 1), 5, 3.0));
}

TEST(Snapshot, CarriesIdentityAndParameters) {
  const auto snap =
      LofModelSnapshot::fit(cloud(20, 2), 5, 2.5, /*version=*/7);
  EXPECT_EQ(snap->version(), 7u);
  EXPECT_EQ(snap->k(), 5u);
  EXPECT_EQ(snap->tau(), 2.5);
  EXPECT_EQ(snap->size(), 20u);
  EXPECT_TRUE(snap->fitted());
  EXPECT_EQ(snap->training().size(), 20u);
}

TEST(Snapshot, InlierScoresNearOneOutlierScoresHigh) {
  const auto train = cloud(40, 3);
  const auto snap = LofModelSnapshot::fit(train, 5, 3.0);
  // A training point itself is deep inside the population.
  EXPECT_LT(snap->score(train[0]), 1.5);
  core::FeatureVector far;
  far.z1 = 8.0;
  far.z2 = -5.0;
  far.z3 = 9.0;
  far.z4 = 7.0;
  EXPECT_GT(snap->score(far), 3.0);
}

// k-distance at duplicated training points is exactly zero; the
// kMinDensityDistance guard must keep densities finite and scores defined.
TEST(Snapshot, DuplicateTrainingPointsKeepScoresFinite) {
  std::vector<core::FeatureVector> train;
  for (std::size_t i = 0; i < 10; ++i) {
    train.push_back(core::FeatureVector{0.8, 0.8, 0.7, 0.3});
  }
  train.push_back(core::FeatureVector{0.82, 0.79, 0.71, 0.31});
  const auto snap = LofModelSnapshot::fit(train, 5, 3.0);

  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(snap->k_distance(i), 0.0) << i;
    EXPECT_TRUE(std::isfinite(snap->lrd(i))) << i;
  }
  EXPECT_TRUE(std::isfinite(snap->score(train[0])));
  core::FeatureVector near_dup{0.8 + 1e-12, 0.8, 0.7, 0.3};
  EXPECT_TRUE(std::isfinite(snap->score(near_dup)));
}

// Training points that differ only in z1, so every distance below is exact.
std::vector<core::FeatureVector> on_line(const std::vector<double>& xs) {
  std::vector<core::FeatureVector> out;
  for (const double x : xs) {
    out.push_back(core::FeatureVector{x, 0.0, 0.0, 0.0});
  }
  return out;
}

// Duplicate points create exact distance ties at the k-th boundary; they
// resolve to the smaller index. Points {0, 0, 4, 4, 5}, k = 2:
//   k-distances 4, 4, 1, 1, 1 and LRDs 1/4, 1/4, 1, 1, 1 (Eq. 7).
// A query at 2 is 2 away from points 0..3. Taking indices {0, 1} gives
// reach-distances {4, 4}: LRD 1/4 and LOF (1/4) / (1/4) = 1. Taking {2, 3}
// would give reach-distances {2, 2}: LRD 1/2 and LOF 1 / (1/2) = 2.
TEST(Snapshot, DuplicatePointsTieBreakByIndex) {
  const auto snap = LofModelSnapshot::fit(on_line({0, 0, 4, 4, 5}), 2, 3.0);
  const double k_dist[] = {4.0, 4.0, 1.0, 1.0, 1.0};
  const double lrd[] = {0.25, 0.25, 1.0, 1.0, 1.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap->k_distance(i), k_dist[i]) << i;
    EXPECT_EQ(snap->lrd(i), lrd[i]) << i;
  }
  EXPECT_EQ(snap->score(core::FeatureVector{2.0, 0.0, 0.0, 0.0}), 1.0);
  EXPECT_EQ(snap->score(core::FeatureVector{0.0, 0.0, 0.0, 0.0}), 1.0);
}

// fit() leaves each training point out of its own neighbour list. In the
// set above a point's duplicate is at distance 0, so without the exclusion
// points 0..3 would get k-distance 0. On a random cloud, every k-distance
// must equal the k-th smallest distance to the *other* points, computed
// independently with euclidean().
TEST(Snapshot, FitExcludesEachPointFromItsOwnNeighbours) {
  const auto dup = LofModelSnapshot::fit(on_line({0, 0, 4, 4, 5}), 2, 3.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(dup->k_distance(i), 0.0) << i;

  constexpr std::size_t kK = 5;
  const auto train = cloud(64, 9);
  const auto snap = LofModelSnapshot::fit(train, kK, 3.0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    std::vector<double> dists;
    for (std::size_t j = 0; j < train.size(); ++j) {
      if (j != i) {
        dists.push_back(euclidean(train[i].as_array(), train[j].as_array()));
      }
    }
    std::sort(dists.begin(), dists.end());
    EXPECT_EQ(snap->k_distance(i), dists[kK - 1]) << "point " << i;
  }
}

// With k = n - 1 every training point's neighbours are all the others.
// Points {0, 0, 1, 3}, k = 3:
//   k-distances 3, 3, 2, 3;
//   reach-distance sums 3+2+3, 3+2+3, 3+3+3, 2+3+3, so LRDs 3/8, 3/8, 1/3,
//   3/8.
// A query at 0 takes neighbours 0, 1, 2 (reach 3, 3, 2).
TEST(Snapshot, KAtSetSizeUsesEveryOtherPoint) {
  const auto snap = LofModelSnapshot::fit(on_line({0, 0, 1, 3}), 3, 3.0);
  const double k_dist[] = {3.0, 3.0, 2.0, 3.0};
  const double lrd[] = {1.0 / (8.0 / 3.0), 1.0 / (8.0 / 3.0),
                        1.0 / (9.0 / 3.0), 1.0 / (8.0 / 3.0)};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap->k_distance(i), k_dist[i]) << i;
    EXPECT_EQ(snap->lrd(i), lrd[i]) << i;
  }
  const double lrd_query = 1.0 / (8.0 / 3.0);
  const double mean_neighbor_lrd = ((lrd[0] + lrd[1]) + lrd[2]) / 3.0;
  EXPECT_EQ(snap->score(core::FeatureVector{0.0, 0.0, 0.0, 0.0}),
            mean_neighbor_lrd / lrd_query);
}

TEST(Snapshot, FitLofModelUsesConfigParameters) {
  core::DetectorConfig config;
  config.lof_neighbors = 4;
  config.lof_threshold = 2.25;
  const auto snap = fit_lof_model(config, cloud(12, 6));
  EXPECT_EQ(snap->k(), 4u);
  EXPECT_EQ(snap->tau(), 2.25);
  EXPECT_EQ(snap->version(), 0u);  // unregistered until published
}

TEST(Snapshot, HandlesAreSharedNotCopied) {
  const auto snap = LofModelSnapshot::fit(cloud(25, 8), 5, 3.0);
  const auto other = snap;  // handle copy
  EXPECT_EQ(other.get(), snap.get());
  EXPECT_EQ(&other->training(), &snap->training());
}

}  // namespace
}  // namespace lumichat::model
