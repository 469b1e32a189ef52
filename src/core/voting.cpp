#include "core/voting.hpp"

namespace lumichat::core {

VoteOutcome majority_vote(const std::vector<bool>& rounds,
                          double vote_fraction) {
  VoteOutcome out;
  out.total_votes = rounds.size();
  for (const bool v : rounds) {
    if (v) ++out.attacker_votes;
  }
  out.is_attacker =
      static_cast<double>(out.attacker_votes) >
      vote_fraction * static_cast<double>(out.total_votes);
  return out;
}

VoteOutcome majority_vote(const std::vector<Verdict>& rounds,
                          double vote_fraction) {
  VoteOutcome out;
  for (const Verdict v : rounds) {
    switch (v) {
      case Verdict::kAttacker:
        ++out.attacker_votes;
        ++out.total_votes;
        break;
      case Verdict::kLegitimate:
        ++out.total_votes;
        break;
      case Verdict::kAbstain:
        ++out.abstained_votes;
        break;
    }
  }
  // With zero decided rounds the fraction test is 0 > 0: accepted.
  out.is_attacker =
      static_cast<double>(out.attacker_votes) >
      vote_fraction * static_cast<double>(out.total_votes);
  return out;
}

}  // namespace lumichat::core
