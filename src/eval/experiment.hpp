// Shared experiment protocol helpers (Sec. VIII-C's repeated-round scheme):
// "we randomly picked 20 instances for training and tested the system using
// the other 20 instances", repeated 20 rounds per volunteer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/features.hpp"
#include "eval/dataset.hpp"
#include "eval/metrics.hpp"

namespace lumichat::eval {

/// A random disjoint train/test split of indices 0..n-1.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Picks `n_train` random training indices out of n; the rest are test.
/// \throws std::invalid_argument if n_train > n.
///
/// NOTE: the Rng& overload consumes shared generator state, so two rounds
/// that share an Rng are sequentially coupled — fine in a serial loop, a
/// race (and a determinism leak) once rounds run concurrently. Parallel
/// call sites must use the seed overload below, giving every round its own
/// derived-seed generator.
[[nodiscard]] Split random_split(std::size_t n, std::size_t n_train,
                                 common::Rng& rng);

/// Same split, drawn from a fresh Rng seeded with `seed`. Each experiment
/// round passes `common::derive_seed(master, round_id)` so the split is a
/// pure function of (master seed, round) — independent of execution order.
[[nodiscard]] Split random_split(std::size_t n, std::size_t n_train,
                                 std::uint64_t seed);

/// Selects the subset of `features` at `indices`.
[[nodiscard]] std::vector<core::FeatureVector> select(
    const std::vector<core::FeatureVector>& features,
    const std::vector<std::size_t>& indices);

/// Per-round accuracy results for one volunteer.
struct RoundResult {
  double tar = 0.0;  ///< over the legit test instances of this round
  double trr = 0.0;  ///< over the attacker instances of this round
};

/// The standard protocol: train a LOF detector on `train_features`, score
/// legit and attacker test sets, return TAR/TRR.
[[nodiscard]] RoundResult evaluate_round(
    const DatasetBuilder& data,
    const std::vector<core::FeatureVector>& train_features,
    const std::vector<core::FeatureVector>& legit_test,
    const std::vector<core::FeatureVector>& attacker_test);

/// One Monte-Carlo voting trial: draws `attempts` verdicts from the pool,
/// applies the vote rule and reports whether the outcome was the wanted one.
/// Shared by the serial and parallel voting_accuracy paths so both consume
/// identical draws per trial.
[[nodiscard]] bool voting_trial(const std::vector<bool>& round_verdicts,
                                std::size_t attempts, double vote_fraction,
                                bool want_attacker, common::Rng& rng);

/// Multi-round voting accuracy (Fig. 14): draws `attempts` single-round
/// verdicts per trial from the given verdict pool and applies the 0.7-vote
/// rule, repeated `trials` times. Trial t draws from a fresh Rng seeded
/// with `common::derive_seed(master_seed, t)`, so the result is a pure
/// function of the arguments, and eval::voting_accuracy_parallel computes
/// exactly the same value on any thread count.
[[nodiscard]] double voting_accuracy(const std::vector<bool>& round_verdicts,
                                     std::size_t attempts, std::size_t trials,
                                     double vote_fraction, bool want_attacker,
                                     std::uint64_t master_seed);

}  // namespace lumichat::eval
