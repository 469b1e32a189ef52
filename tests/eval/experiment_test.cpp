#include "eval/experiment.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace lumichat::eval {
namespace {

TEST(RandomSplit, PartitionsAllIndices) {
  common::Rng rng(1);
  const Split s = random_split(40, 20, rng);
  EXPECT_EQ(s.train.size(), 20u);
  EXPECT_EQ(s.test.size(), 20u);
  std::set<std::size_t> all;
  for (std::size_t i : s.train) all.insert(i);
  for (std::size_t i : s.test) all.insert(i);
  EXPECT_EQ(all.size(), 40u);
  EXPECT_EQ(*all.rbegin(), 39u);
}

TEST(RandomSplit, RejectsOversizedTrain) {
  common::Rng rng(1);
  EXPECT_THROW((void)random_split(10, 11, rng), std::invalid_argument);
}

TEST(RandomSplit, DifferentRoundsDiffer) {
  common::Rng rng(2);
  const Split a = random_split(40, 20, rng);
  const Split b = random_split(40, 20, rng);
  EXPECT_NE(a.train, b.train);
}

TEST(Select, PicksRequestedFeatures) {
  std::vector<core::FeatureVector> f(5);
  for (std::size_t i = 0; i < 5; ++i) f[i].z1 = static_cast<double>(i);
  const auto out = select(f, {4, 0, 2});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].z1, 4.0);
  EXPECT_DOUBLE_EQ(out[1].z1, 0.0);
  EXPECT_DOUBLE_EQ(out[2].z1, 2.0);
}

TEST(Select, OutOfRangeThrows) {
  std::vector<core::FeatureVector> f(3);
  EXPECT_THROW((void)select(f, {5}), std::out_of_range);
}

TEST(EvaluateRound, SeparatesObviousClasses) {
  SimulationProfile p;
  DatasetBuilder data(p);
  std::vector<core::FeatureVector> train;
  std::vector<core::FeatureVector> legit;
  std::vector<core::FeatureVector> attack;
  common::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    train.push_back(core::FeatureVector{1.0 - rng.uniform(0.0, 0.1),
                                        1.0 - rng.uniform(0.0, 0.1),
                                        0.9 - rng.uniform(0.0, 0.1),
                                        0.3 + rng.uniform(0.0, 0.1)});
  }
  for (int i = 0; i < 10; ++i) {
    legit.push_back(core::FeatureVector{0.95, 0.95, 0.85, 0.35});
    attack.push_back(core::FeatureVector{0.1, 0.1, -0.3, 1.8});
  }
  const RoundResult r = evaluate_round(data, train, legit, attack);
  EXPECT_DOUBLE_EQ(r.tar, 1.0);
  EXPECT_DOUBLE_EQ(r.trr, 1.0);
}

TEST(VotingAccuracy, AllCorrectVerdictsGivePerfectAccuracy) {
  const std::vector<bool> attacker_verdicts(20, true);
  EXPECT_DOUBLE_EQ(
      voting_accuracy(attacker_verdicts, 3, 50, 0.7, true, 4), 1.0);
  const std::vector<bool> legit_verdicts(20, false);
  EXPECT_DOUBLE_EQ(
      voting_accuracy(legit_verdicts, 3, 50, 0.7, false, 4), 1.0);
}

TEST(VotingAccuracy, MoreAttemptsImproveNoisyAttackerDetection) {
  // 85% of single rounds say "attacker": voting over more attempts should
  // not hurt and typically helps.
  std::vector<bool> verdicts;
  for (int i = 0; i < 100; ++i) verdicts.push_back(i < 85);
  const double one = voting_accuracy(verdicts, 1, 4000, 0.7, true, 5);
  const double seven = voting_accuracy(verdicts, 7, 4000, 0.7, true, 5);
  EXPECT_GT(seven, one - 0.02);
  EXPECT_NEAR(one, 0.85, 0.03);
}

TEST(VotingAccuracy, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(voting_accuracy({}, 3, 10, 0.7, true, 6), 0.0);
  EXPECT_DOUBLE_EQ(voting_accuracy({true}, 0, 10, 0.7, true, 6), 0.0);
  EXPECT_DOUBLE_EQ(voting_accuracy({true}, 3, 0, 0.7, true, 6), 0.0);
}

}  // namespace
}  // namespace lumichat::eval
