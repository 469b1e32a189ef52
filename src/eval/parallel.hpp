// Deterministic parallel experiment engine.
//
// The paper's evaluation (Sec. VIII, Figs. 11-17) is a Monte-Carlo sweep:
// 20 random train/test rounds per volunteer, repeated across thresholds,
// screen sizes, attempt counts and sampling rates. Every round is
// independent given its seed, so the whole sweep is embarrassingly
// parallel — *if* no two units of work share generator state. This layer
// enforces that: each unit (a round, a voting trial, a clip) owns an Rng
// seeded with common::derive_seed(master, stream_id), making its result a
// pure function of (inputs, master seed, stream id). Consequently every
// entry point below is bit-identical for pool == nullptr (serial), a
// 1-thread pool, or an N-thread pool, regardless of scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/dataset.hpp"
#include "eval/experiment.hpp"
#include "eval/population.hpp"

namespace lumichat::eval {

/// Runs fn(round, derive_seed(master_seed, round)) for every round in
/// [0, n_rounds), optionally across `pool`; result r lands in slot r.
/// The generic fan-out primitive the figure benches compose their custom
/// protocols from (e.g. Fig. 11 evaluates own- and other-trained detectors
/// in one round body).
template <typename T>
[[nodiscard]] std::vector<T> run_rounds(
    std::size_t n_rounds, std::uint64_t master_seed,
    const std::function<T(std::size_t round, std::uint64_t seed)>& fn,
    common::ThreadPool* pool = nullptr) {
  std::vector<T> out(n_rounds);
  common::for_each_index(pool, n_rounds, [&](std::size_t r) {
    out[r] = fn(r, common::derive_seed(master_seed, r));
  });
  return out;
}

/// The Sec. VIII-C repeated-round protocol over precomputed feature pools.
struct RoundPlan {
  std::size_t n_rounds = kRoundsPerVolunteer;
  std::size_t n_train = 20;
  /// Cap on the held-out legitimate test set (Fig. 15 fixes it at 20 so the
  /// sweep varies only the training side); unlimited by default.
  std::size_t max_legit_test = std::numeric_limits<std::size_t>::max();
  std::uint64_t master_seed = 42;
};

/// Runs `plan.n_rounds` rounds: round r splits `legit_pool` with a fresh
/// Rng seeded from (master_seed, r), trains on the train side, and scores
/// the held-out legit side plus the whole `attacker_pool`.
[[nodiscard]] std::vector<RoundResult> evaluate_rounds(
    const DatasetBuilder& data,
    const std::vector<core::FeatureVector>& legit_pool,
    const std::vector<core::FeatureVector>& attacker_pool,
    const RoundPlan& plan, common::ThreadPool* pool = nullptr);

/// Feature vectors for `n_clips` clips of every volunteer in `volunteers`,
/// fanned out over (volunteer, clip) pairs. Dataset generation dominates
/// every bench's wall clock; clips are already seeded per
/// (master, volunteer, role, clip) by DatasetBuilder, so this parallelises
/// with no further seeding work.
[[nodiscard]] std::vector<std::vector<core::FeatureVector>>
population_features(const DatasetBuilder& data,
                    std::span<const Volunteer> volunteers, Role role,
                    std::size_t n_clips, double adaptive_delay_s = 0.0,
                    common::ThreadPool* pool = nullptr);

/// Parallel counterpart of voting_accuracy: computes the identical value
/// (trial t always draws from Rng(derive_seed(master, t))) with trials
/// chunked across the pool.
[[nodiscard]] double voting_accuracy_parallel(
    const std::vector<bool>& round_verdicts, std::size_t attempts,
    std::size_t trials, double vote_fraction, bool want_attacker,
    std::uint64_t master_seed, common::ThreadPool* pool = nullptr);

}  // namespace lumichat::eval
