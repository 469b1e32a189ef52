#include "eval/fault_sweep.hpp"

#include <cstdio>

#include "model/snapshot.hpp"

namespace lumichat::eval {

const std::vector<FaultFamily>& fault_families() {
  static const std::vector<FaultFamily> kFamilies = {
      {"burst_loss", &faults::FaultConfig::burst_loss},
      {"duplication", &faults::FaultConfig::duplication},
      {"reordering", &faults::FaultConfig::reordering},
      {"clock_skew", &faults::FaultConfig::clock_skew},
      {"exposure_drift", &faults::FaultConfig::exposure_drift},
      {"white_balance_drift", &faults::FaultConfig::white_balance_drift},
      {"codec_collapse", &faults::FaultConfig::codec_collapse},
      {"resolution_switch", &faults::FaultConfig::resolution_switch},
  };
  return kFamilies;
}

double FaultSweepPoint::tar() const {
  const std::size_t decided = legit_total - legit_abstained;
  if (decided == 0) return 1.0;
  return static_cast<double>(legit_accepted) / static_cast<double>(decided);
}

double FaultSweepPoint::trr() const {
  const std::size_t decided = attack_total - attack_abstained;
  if (decided == 0) return 1.0;
  return static_cast<double>(attack_detected) / static_cast<double>(decided);
}

double FaultSweepPoint::abstain_rate() const {
  const std::size_t total = legit_total + attack_total;
  if (total == 0) return 0.0;
  return static_cast<double>(legit_abstained + attack_abstained) /
         static_cast<double>(total);
}

std::vector<core::Verdict> FaultSweepResult::verdict_fingerprint() const {
  std::vector<core::Verdict> out;
  for (const FaultFamilyCurve& curve : curves) {
    for (const FaultSweepPoint& p : curve.points) {
      out.insert(out.end(), p.verdicts.begin(), p.verdicts.end());
    }
  }
  return out;
}

std::string FaultSweepResult::to_json() const {
  std::string json = "{\"curves\":[";
  for (std::size_t c = 0; c < curves.size(); ++c) {
    if (c > 0) json += ',';
    json += "{\"family\":\"" + curves[c].family + "\",\"points\":[";
    for (std::size_t i = 0; i < curves[c].points.size(); ++i) {
      const FaultSweepPoint& p = curves[c].points[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"severity\":%.4g,\"tar\":%.6g,\"trr\":%.6g,"
                    "\"abstain_rate\":%.6g,\"legit_abstained\":%zu,"
                    "\"attack_abstained\":%zu}",
                    i > 0 ? "," : "", p.severity, p.tar(), p.trr(),
                    p.abstain_rate(), p.legit_abstained, p.attack_abstained);
      json += buf;
    }
    json += "]}";
  }
  json += "]}";
  return json;
}

FaultSweepResult run_fault_sweep(const FaultSweepSpec& spec,
                                 common::ThreadPool* pool) {
  SimulationProfile clean = spec.base_profile;
  clean.clip_duration_s = spec.clip_duration_s;
  clean.faults = faults::FaultConfig{};
  clean.detector.enable_abstain = spec.enable_abstain;

  const auto pop = make_population(spec.n_volunteers);

  // Train once, on clean legitimate clips across the cohort (a deployment
  // calibrates before the network degrades, not during).
  const DatasetBuilder clean_data(clean);
  const std::size_t n_train = spec.n_volunteers * spec.n_train_clips;
  std::vector<core::FeatureVector> train(n_train);
  common::for_each_index(pool, n_train, [&](std::size_t i) {
    const std::size_t v = i / spec.n_train_clips;
    const std::size_t clip = i % spec.n_train_clips;
    train[i] = clean_data.feature(pop[v], Role::kLegitimate, clip);
  });
  core::Detector detector = clean_data.make_detector();
  detector.attach_model(model::fit_lof_model(detector.config(), train));

  // Evaluation clips use indices far above the training range so the two
  // sets never share a (volunteer, role, clip) seed.
  constexpr std::size_t kEvalClipBase = 1000;

  FaultSweepResult result;
  for (const FaultFamily& family : fault_families()) {
    FaultFamilyCurve curve;
    curve.family = family.name;
    for (const double severity : spec.severities) {
      SimulationProfile degraded = clean;
      degraded.faults.*(family.severity) = severity;
      const DatasetBuilder data(degraded);

      FaultSweepPoint point;
      point.severity = severity;
      const std::size_t per_role = spec.n_volunteers * spec.n_eval_clips;
      point.verdicts.assign(2 * per_role, core::Verdict::kLegitimate);
      common::for_each_index(pool, 2 * per_role, [&](std::size_t i) {
        const bool attacker_role = i >= per_role;
        const std::size_t j = attacker_role ? i - per_role : i;
        const std::size_t v = j / spec.n_eval_clips;
        const std::size_t clip = kEvalClipBase + j % spec.n_eval_clips;
        const chat::SessionTrace trace =
            attacker_role ? data.attacker_trace(pop[v], clip)
                          : data.legit_trace(pop[v], clip);
        point.verdicts[i] = detector.detect(trace).verdict;
      });

      for (std::size_t i = 0; i < point.verdicts.size(); ++i) {
        const bool attacker_role = i >= per_role;
        const core::Verdict verdict = point.verdicts[i];
        if (attacker_role) {
          ++point.attack_total;
          if (verdict == core::Verdict::kAbstain) ++point.attack_abstained;
          if (verdict == core::Verdict::kAttacker) ++point.attack_detected;
        } else {
          ++point.legit_total;
          if (verdict == core::Verdict::kAbstain) ++point.legit_abstained;
          if (verdict == core::Verdict::kLegitimate) ++point.legit_accepted;
        }
      }
      curve.points.push_back(std::move(point));
    }
    result.curves.push_back(std::move(curve));
  }

  return result;
}

}  // namespace lumichat::eval
