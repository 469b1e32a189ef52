// Deterministic executor for scripted scenario campaigns.
//
// run_scenario drives the concurrent service runtime (SessionManager +
// FrameScheduler) through a ScenarioSpec: every caller's chat is simulated
// tick by tick, frames stream into the caller's hosted session, and the
// timeline's events mutate the world mid-call — fault ramps re-plan the
// session's injectors, actor swaps replace who answers, reconnects evict the
// service session and rejoin after a blackout. The loop is the load
// generator's lockstep shape with a serial control step added:
//
//   per stride:  apply due events (serial, ordinal order, queues drained)
//                -> generate & feed frames (parallel across callers)
//                -> scheduler.pump()  (drain detection backlog)
//                -> record newly completed window verdicts (serial)
//
// Because control flow touches the manager only at pump boundaries, the
// whole campaign — verdict sequences, evictions, freelist recycling — is a
// pure function of the spec, bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/streaming.hpp"
#include "core/voting.hpp"
#include "scenario/timeline.hpp"
#include "service/session_manager.hpp"

namespace lumichat::scenario {

/// Everything one caller's campaign produced, across every service session
/// the caller occupied (reconnects span several sessions; verdict vectors
/// concatenate them in time order).
struct CallerOutcome {
  std::size_t ordinal = 0;
  Actor initial_actor = Actor::kLegitimate;
  Actor final_actor = Actor::kLegitimate;
  /// Service session ids this caller occupied, in order — the key for
  /// joining against explanation JSONL (RoundExplanation.stream).
  std::vector<service::SessionId> session_ids;
  /// One entry per completed detection window, in completion order.
  std::vector<core::Verdict> verdicts;
  std::vector<double> lof_scores;
  /// Scenario time at the end of the stride in which each window's verdict
  /// became visible (window completion time, quantised to the pump grid).
  std::vector<double> window_end_s;
  /// Who was answering when each window completed (ground truth for
  /// per-window TAR/TRR under mid-call swaps).
  std::vector<bool> truth_attacker;
  /// Quantised time of the first swap to the reenactor; negative when the
  /// caller was never taken over mid-call.
  double takeover_at_s = -1.0;
  std::size_t reconnects = 0;
  /// Rejoin attempts deferred because admission control was full.
  std::size_t rejoin_deferrals = 0;
  /// Partial-window evidence lost across every eviction of this caller.
  std::size_t pending_samples_dropped = 0;
  /// Majority vote over `verdicts` (all sessions pooled).
  core::VoteOutcome final_verdict{};
};

struct ScenarioReport {
  std::string name;
  /// Non-empty when the spec failed validation; nothing was run.
  std::string error;
  std::vector<CallerOutcome> callers;
  std::size_t frames_fed = 0;
  /// Initial admissions rejected by capacity (those callers never run).
  std::size_t admission_rejections = 0;
  double elapsed_s = 0.0;

  /// Windows whose truth was attacker / legitimate that were decided (not
  /// abstained), and how many of those the detector got right — the
  /// campaign-level TAR ("attacker windows flagged") and TRR ("legitimate
  /// windows passed").
  [[nodiscard]] std::size_t attacker_windows() const;
  [[nodiscard]] std::size_t legit_windows() const;
  [[nodiscard]] std::size_t abstained_windows() const;
  [[nodiscard]] double true_accept_rate() const;  ///< of attacker windows
  [[nodiscard]] double true_reject_rate() const;  ///< of legit windows

  /// Compact per-caller verdict string — 'L'/'A'/'~' per window, callers
  /// joined with '|'. Two runs of the same spec must produce the same
  /// fingerprint at any LUMICHAT_THREADS setting; the determinism gates
  /// compare exactly this.
  [[nodiscard]] std::string verdict_fingerprint() const;
};

/// Runs `spec` against a service built from `service_config`, sessions
/// configured by `streaming` with the current snapshot of `models` attached
/// at admission (the snapshot-handle entry point: publishing to `models`
/// while the campaign runs hot-swaps the model for sessions created
/// afterwards — e.g. reconnects — with zero stall of running sessions).
/// `sink` receives every session's RoundExplanations keyed by service
/// session id (nullptr = silent). `pool` may be null (serial execution).
[[nodiscard]] ScenarioReport run_scenario(
    const ScenarioSpec& spec, const service::ServiceConfig& service_config,
    const core::StreamingConfig& streaming,
    std::shared_ptr<model::ModelRegistry> models, obs::ExplanationSink* sink,
    common::ThreadPool* pool);

}  // namespace lumichat::scenario
