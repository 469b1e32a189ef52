// Fault-injection severity sweep — accuracy and abstain-rate curves per
// fault family (the degraded-operation counterpart of the Fig. 11 protocol).
//
// For each fault family (burst loss, duplication, reordering, clock skew,
// exposure drift, white-balance drift, codec collapse, resolution switch)
// the sweep builds sessions at a grid of severities in [0, 1], runs a
// detector trained on *clean* legitimate clips, and records per-clip
// three-way verdicts. The result serialises to JSON (one curve per family)
// and exposes a verdict fingerprint: the concatenated verdict sequence,
// which must be bit-identical across two runs with the same spec — the
// property bench_fault_sweep enforces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/voting.hpp"
#include "eval/dataset.hpp"
#include "faults/fault_config.hpp"

namespace lumichat::eval {

struct FaultSweepSpec {
  std::size_t n_volunteers = 2;
  /// Clean legitimate clips (per volunteer) that train the LOF model.
  std::size_t n_train_clips = 8;
  /// Degraded clips (per volunteer per role) evaluated at each grid point.
  std::size_t n_eval_clips = 6;
  /// Severity grid, identical for every family. Must contain 0 so the
  /// undegraded baseline anchors each curve.
  std::vector<double> severities = {0.0, 0.25, 0.5, 0.75, 1.0};
  /// Session length of every clip (shorter than the 15 s default keeps
  /// smoke runs cheap without changing the protocol).
  double clip_duration_s = 15.0;
  /// When true the detector may abstain on degraded input (the sweep then
  /// reports abstain rates); when false it reproduces always-decide.
  bool enable_abstain = true;
  eval::SimulationProfile base_profile{};
};

/// The sweepable fault families, one per FaultConfig severity knob.
struct FaultFamily {
  const char* name;
  double faults::FaultConfig::* severity;  ///< the knob this family turns
};

/// All eight families in a fixed, stable order.
[[nodiscard]] const std::vector<FaultFamily>& fault_families();

/// One (family, severity) grid point.
struct FaultSweepPoint {
  double severity = 0.0;
  std::size_t legit_total = 0;
  std::size_t legit_accepted = 0;   ///< decided legitimate, correctly
  std::size_t legit_abstained = 0;
  std::size_t attack_total = 0;
  std::size_t attack_detected = 0;  ///< decided attacker, correctly
  std::size_t attack_abstained = 0;
  /// Per-clip verdicts, legitimate clips first then attacker clips, in clip
  /// order — the determinism fingerprint.
  std::vector<core::Verdict> verdicts;

  /// True-acceptance rate over DECIDED legitimate clips (1 if none decided).
  [[nodiscard]] double tar() const;
  /// True-rejection rate over DECIDED attacker clips (1 if none decided).
  [[nodiscard]] double trr() const;
  /// Fraction of all clips that abstained.
  [[nodiscard]] double abstain_rate() const;
};

struct FaultFamilyCurve {
  std::string family;
  std::vector<FaultSweepPoint> points;
};

struct FaultSweepResult {
  std::vector<FaultFamilyCurve> curves;

  /// Concatenated verdicts of every (family, severity, clip) in sweep
  /// order. Two runs with the same spec must produce equal fingerprints.
  [[nodiscard]] std::vector<core::Verdict> verdict_fingerprint() const;

  /// {"curves":[{"family":...,"points":[{"severity":...,"tar":...,
  /// "trr":...,"abstain_rate":...},...]},...]}
  [[nodiscard]] std::string to_json() const;
};

/// Runs the sweep. The detector is trained once on clean clips; every grid
/// point is a pure function of (spec), so repeated runs are bit-identical.
/// `pool` parallelises clip generation (nullptr = serial).
[[nodiscard]] FaultSweepResult run_fault_sweep(
    const FaultSweepSpec& spec, common::ThreadPool* pool = nullptr);

}  // namespace lumichat::eval
