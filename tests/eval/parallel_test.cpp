// Determinism of the parallel experiment engine: every entry point must be
// bit-identical across serial, 1-thread, and N-thread execution for the
// same master seed — the whole point of per-unit derived seeds.
#include "eval/parallel.hpp"

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "model/snapshot.hpp"

namespace lumichat::eval {
namespace {

// Synthetic, well-separated feature pools (same idiom as experiment_test):
// cheap to build, so the determinism sweeps don't pay dataset simulation.
std::vector<core::FeatureVector> legit_cluster(std::size_t n,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<core::FeatureVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::FeatureVector{1.0 - rng.uniform(0.0, 0.1),
                                      1.0 - rng.uniform(0.0, 0.1),
                                      0.9 - rng.uniform(0.0, 0.1),
                                      0.3 + rng.uniform(0.0, 0.1)});
  }
  return out;
}

std::vector<core::FeatureVector> attacker_cluster(std::size_t n,
                                                  std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<core::FeatureVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::FeatureVector{rng.uniform(0.0, 0.3),
                                      rng.uniform(0.0, 0.3),
                                      -0.2 + rng.uniform(0.0, 0.2),
                                      1.5 + rng.uniform(0.0, 0.5)});
  }
  return out;
}

void expect_same_rounds(const std::vector<RoundResult>& a,
                        const std::vector<RoundResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles: bit-identical, not merely close.
    EXPECT_EQ(a[i].tar, b[i].tar) << "round " << i;
    EXPECT_EQ(a[i].trr, b[i].trr) << "round " << i;
  }
}

TEST(EvaluateRounds, SerialOneThreadAndFourThreadsAreBitIdentical) {
  const SimulationProfile profile;
  const DatasetBuilder data(profile);
  const auto legit = legit_cluster(24, 7);
  const auto attack = attacker_cluster(24, 8);

  RoundPlan plan;
  plan.n_rounds = 16;
  plan.n_train = 12;
  plan.master_seed = 42;

  const auto serial = evaluate_rounds(data, legit, attack, plan);
  common::ThreadPool one(1);
  const auto threaded1 = evaluate_rounds(data, legit, attack, plan, &one);
  common::ThreadPool four(4);
  const auto threaded4 = evaluate_rounds(data, legit, attack, plan, &four);

  expect_same_rounds(serial, threaded1);
  expect_same_rounds(serial, threaded4);
}

TEST(EvaluateRounds, RerunningCannotDrift) {
  const SimulationProfile profile;
  const DatasetBuilder data(profile);
  const auto legit = legit_cluster(24, 7);
  const auto attack = attacker_cluster(24, 8);

  RoundPlan plan;
  plan.n_rounds = 8;
  plan.n_train = 12;
  plan.master_seed = 42;
  common::ThreadPool four(4);

  const auto a = evaluate_rounds(data, legit, attack, plan, &four);
  const auto b = evaluate_rounds(data, legit, attack, plan, &four);
  expect_same_rounds(a, b);
}

TEST(EvaluateRounds, RoundSplitsDependOnTheMasterSeed) {
  // The metric can saturate on well-separated data, so seed sensitivity is
  // asserted where it lives: the per-round train/test splits.
  const auto splits_for = [](std::uint64_t master) {
    return run_rounds<std::vector<std::size_t>>(
        8, master, [](std::size_t, std::uint64_t seed) {
          return random_split(24, 12, seed).train;
        });
  };
  const auto a = splits_for(42);
  const auto b = splits_for(42);
  const auto c = splits_for(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // And rounds within one run must differ from each other too.
  EXPECT_NE(a[0], a[1]);
}

TEST(EvaluateRounds, MaxLegitTestCapsTheTestSide) {
  const SimulationProfile profile;
  const DatasetBuilder data(profile);
  const auto legit = legit_cluster(24, 7);

  RoundPlan plan;
  plan.n_rounds = 2;
  plan.n_train = 8;  // LOF needs at least k+1 = 6 training vectors
  plan.max_legit_test = 5;
  // 16 held out but only 5 scored: TAR denominators come from 5 attempts,
  // so with perfect separation the rate is still exactly 1.
  const auto rounds = evaluate_rounds(data, legit, {}, plan);
  for (const RoundResult& r : rounds) EXPECT_EQ(r.tar, 1.0);
}

TEST(RunRounds, HandsEachRoundItsDerivedSeedInSlotOrder) {
  common::ThreadPool pool(3);
  const std::uint64_t master = 99;
  const auto out = run_rounds<std::pair<std::size_t, std::uint64_t>>(
      10, master,
      [](std::size_t r, std::uint64_t seed) { return std::pair{r, seed}; },
      &pool);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out[r].first, r);
    EXPECT_EQ(out[r].second, common::derive_seed(master, r));
  }
}

TEST(SeededVotingAccuracy, SerialAndParallelAgreeBitwise) {
  std::vector<bool> verdicts;
  common::Rng gen(5);
  for (int i = 0; i < 100; ++i) verdicts.push_back(gen.chance(0.85));

  for (const std::size_t attempts : {1ul, 3ul, 7ul}) {
    const double serial =
        voting_accuracy(verdicts, attempts, 1000, 0.7, true,
                        std::uint64_t{123});
    common::ThreadPool one(1);
    EXPECT_EQ(serial, voting_accuracy_parallel(verdicts, attempts, 1000, 0.7,
                                               true, 123, &one));
    common::ThreadPool four(4);
    EXPECT_EQ(serial, voting_accuracy_parallel(verdicts, attempts, 1000, 0.7,
                                               true, 123, &four));
    // Serial-without-pool path of the parallel entry point too.
    EXPECT_EQ(serial, voting_accuracy_parallel(verdicts, attempts, 1000, 0.7,
                                               true, 123, nullptr));
  }
}

TEST(SeededVotingAccuracy, DegenerateInputs) {
  EXPECT_EQ(voting_accuracy({}, 3, 10, 0.7, true, std::uint64_t{1}), 0.0);
  EXPECT_EQ(voting_accuracy({true}, 0, 10, 0.7, true, std::uint64_t{1}), 0.0);
  EXPECT_EQ(voting_accuracy({true}, 3, 0, 0.7, true, std::uint64_t{1}), 0.0);
  common::ThreadPool pool(2);
  EXPECT_EQ(voting_accuracy_parallel({}, 3, 10, 0.7, true, 1, &pool), 0.0);
}

TEST(SeededRandomSplit, IsAPureFunctionOfTheSeed) {
  const Split a = random_split(40, 20, std::uint64_t{11});
  const Split b = random_split(40, 20, std::uint64_t{11});
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
  const Split c = random_split(40, 20, std::uint64_t{12});
  EXPECT_NE(a.train, c.train);
}

TEST(PopulationFeatures, ParallelMatchesSerialBitwise) {
  SimulationProfile profile;
  const DatasetBuilder data(profile);
  const auto pop = make_population(2);

  const auto serial = population_features(data, pop, Role::kLegitimate, 2);
  common::ThreadPool four(4);
  const auto parallel =
      population_features(data, pop, Role::kLegitimate, 2, 0.0, &four);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t u = 0; u < serial.size(); ++u) {
    ASSERT_EQ(serial[u].size(), parallel[u].size());
    for (std::size_t c = 0; c < serial[u].size(); ++c) {
      EXPECT_EQ(serial[u][c].z1, parallel[u][c].z1);
      EXPECT_EQ(serial[u][c].z2, parallel[u][c].z2);
      EXPECT_EQ(serial[u][c].z3, parallel[u][c].z3);
      EXPECT_EQ(serial[u][c].z4, parallel[u][c].z4);
    }
  }
}

TEST(DetectBatch, VerdictsAndScoresIdenticalAcrossThreadCounts) {
  SimulationProfile profile;
  const DatasetBuilder data(profile);
  const auto pop = make_population(1);

  // Train on cheap synthetic features; detect real traces of both roles.
  core::Detector det = data.make_detector();
  det.attach_model(model::fit_lof_model(det.config(), legit_cluster(12, 3)));

  std::vector<chat::SessionTrace> traces;
  traces.push_back(data.legit_trace(pop[0], 0));
  traces.push_back(data.attacker_trace(pop[0], 0));
  traces.push_back(data.legit_trace(pop[0], 1));

  const auto serial = det.detect_batch(traces);
  common::ThreadPool one(1);
  const auto batch1 = det.detect_batch(traces, &one);
  common::ThreadPool four(4);
  const auto batch4 = det.detect_batch(traces, &four);

  ASSERT_EQ(serial.size(), traces.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].is_attacker, batch1[i].is_attacker);
    EXPECT_EQ(serial[i].lof_score, batch1[i].lof_score);
    EXPECT_EQ(serial[i].is_attacker, batch4[i].is_attacker);
    EXPECT_EQ(serial[i].lof_score, batch4[i].lof_score);
  }

  const core::VoteOutcome vs = det.detect_rounds(traces);
  const core::VoteOutcome vp = det.detect_rounds(traces, &four);
  EXPECT_EQ(vs.is_attacker, vp.is_attacker);
  EXPECT_EQ(vs.attacker_votes, vp.attacker_votes);
}

}  // namespace
}  // namespace lumichat::eval
