#include "eval/experiment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/voting.hpp"
#include "model/snapshot.hpp"

namespace lumichat::eval {

Split random_split(std::size_t n, std::size_t n_train, common::Rng& rng) {
  if (n_train > n) {
    throw std::invalid_argument("random_split: n_train > n");
  }
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  Split s;
  s.train.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_train));
  s.test.assign(idx.begin() + static_cast<std::ptrdiff_t>(n_train), idx.end());
  return s;
}

Split random_split(std::size_t n, std::size_t n_train, std::uint64_t seed) {
  common::Rng rng(seed);
  return random_split(n, n_train, rng);
}

std::vector<core::FeatureVector> select(
    const std::vector<core::FeatureVector>& features,
    const std::vector<std::size_t>& indices) {
  std::vector<core::FeatureVector> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(features.at(i));
  return out;
}

RoundResult evaluate_round(
    const DatasetBuilder& data,
    const std::vector<core::FeatureVector>& train_features,
    const std::vector<core::FeatureVector>& legit_test,
    const std::vector<core::FeatureVector>& attacker_test) {
  core::Detector det = data.make_detector();
  det.attach_model(model::fit_lof_model(det.config(), train_features));
  obs::ExplanationSink* sink = det.explanation_sink();

  // Round indices number legit test vectors first, then attackers, in scan
  // order — deterministic regardless of how rounds fan out over a pool.
  AttemptCounts counts;
  std::uint64_t idx = 0;
  for (const core::FeatureVector& z : legit_test) {
    const core::DetectionResult r = det.classify(z);
    counts.add_legit(!r.is_attacker);
    if (sink != nullptr) sink->emit(det.explain(r, 0, idx));
    ++idx;
  }
  for (const core::FeatureVector& z : attacker_test) {
    const core::DetectionResult r = det.classify(z);
    counts.add_attacker(r.is_attacker);
    if (sink != nullptr) sink->emit(det.explain(r, 0, idx));
    ++idx;
  }
  return RoundResult{counts.tar(), counts.trr()};
}

bool voting_trial(const std::vector<bool>& round_verdicts,
                  std::size_t attempts, double vote_fraction,
                  bool want_attacker, common::Rng& rng) {
  std::vector<bool> votes;
  votes.reserve(attempts);
  for (std::size_t a = 0; a < attempts; ++a) {
    votes.push_back(
        round_verdicts[rng.uniform_int(0, round_verdicts.size() - 1)]);
  }
  const core::VoteOutcome v = core::majority_vote(votes, vote_fraction);
  return v.is_attacker == want_attacker;
}

double voting_accuracy(const std::vector<bool>& round_verdicts,
                       std::size_t attempts, std::size_t trials,
                       double vote_fraction, bool want_attacker,
                       std::uint64_t master_seed) {
  if (round_verdicts.empty() || attempts == 0 || trials == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    common::Rng rng(common::derive_seed(master_seed, t));
    if (voting_trial(round_verdicts, attempts, vote_fraction, want_attacker,
                     rng)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(trials);
}

}  // namespace lumichat::eval
