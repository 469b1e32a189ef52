// Deployment workflow: train the LOF model once (e.g. at the vendor, on a
// pool of legitimate clips), publish it through a ModelRegistry, persist the
// versioned snapshot, and load it on any device — the "quickly launched on
// new devices" story of the paper, made concrete. The on-disk format is
// `lumichat-lof v3`: it carries the registry version id, k, tau and the
// training vectors at full precision, so a device refits exactly the model
// the vendor published.
//
//   $ ./model_persistence /tmp/lumichat_model.txt
#include <cstdio>

#include "core/calibration.hpp"
#include "core/model_io.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "model/registry.hpp"

int main(int argc, char** argv) {
  using namespace lumichat;
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/lumichat_model.txt";

  eval::SimulationProfile profile;
  eval::DatasetBuilder data(profile);
  const auto people = eval::make_population();

  // --- Vendor side: gather legitimate clips, auto-calibrate tau, publish
  // into a registry (assigns version 1), save the snapshot. ---
  std::printf("[vendor] collecting 24 legitimate clips (volunteer 9)...\n");
  const auto legit = data.features(people[9], eval::Role::kLegitimate, 24);

  const core::CalibrationResult cal =
      core::calibrate_threshold(legit, profile.detector.lof_neighbors,
                                /*target_frr=*/0.05);
  std::printf("[vendor] calibrated tau=%.2f (estimated FRR %.1f%%)\n",
              cal.tau, 100.0 * cal.estimated_frr);

  auto registry = std::make_shared<model::ModelRegistry>();
  const auto published =
      registry->publish(legit, profile.detector.lof_neighbors, cal.tau);
  core::save_model(core::model_state_of(*published), path);
  std::printf("[vendor] model v%llu written to %s\n\n",
              static_cast<unsigned long long>(published->version()),
              path.c_str());

  // --- Device side: load, attach, detect — no training data needed
  // locally, and every session on the device shares one immutable
  // snapshot. ---
  std::printf("[device] loading model...\n");
  const core::ModelState state = core::load_model(path);
  const auto snapshot = core::snapshot_from_model(state);
  core::Detector detector(profile.detector_config());
  detector.attach_model(snapshot);
  std::printf("[device] ready (v%llu, k=%zu tau=%.2f, %zu training "
              "vectors)\n",
              static_cast<unsigned long long>(snapshot->version()), state.k,
              state.tau, state.training.size());

  const auto legit_result =
      detector.detect(data.legit_trace(people[2], 300));
  const auto attack_result =
      detector.detect(data.attacker_trace(people[2], 300));
  std::printf("[device] legitimate chat -> %s (LOF %.2f)\n",
              legit_result.is_attacker ? "REJECT" : "accept",
              legit_result.lof_score);
  std::printf("[device] reenactment attack -> %s (LOF %.2f)\n",
              attack_result.is_attacker ? "REJECT" : "accept",
              attack_result.lof_score);

  // --- Fleet update: the vendor retrains on a bigger pool and publishes
  // v2; a device that installs it hot-swaps with no session restart. ---
  std::printf("\n[vendor] retraining on 32 clips, publishing v2...\n");
  const auto more = data.features(people[9], eval::Role::kLegitimate, 32);
  const auto updated =
      registry->publish(more, profile.detector.lof_neighbors, cal.tau);
  detector.attach_model(updated);
  std::printf("[device] hot-swapped to v%llu (%zu training vectors)\n",
              static_cast<unsigned long long>(updated->version()),
              detector.training_data().size());

  return (!legit_result.is_attacker && attack_result.is_attacker) ? 0 : 1;
}
