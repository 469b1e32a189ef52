// Deterministic load generator for the verification service.
//
// Simulates M concurrent video chats — a deterministic mix of legitimate
// respondents and ICFace-style reenactment attackers, each seeded with
// derive_seed(master, session ordinal) — and drives them through a
// SessionManager + FrameScheduler in lockstep ticks: every simulated chat
// advances one frame, feeds it, and the scheduler pumps the backlog across
// the pool. Because each chat's frame stream is a pure function of
// (spec, ordinal) and each session's frames are processed in feed order, the
// per-session verdict sequences are bit-identical for any worker count —
// run_load at 1 thread and at N threads must agree exactly, which is the
// service-layer extension of bench_parallel_scaling's invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/streaming.hpp"
#include "core/voting.hpp"
#include "faults/fault_config.hpp"
#include "obs/metrics.hpp"
#include "reenact/call.hpp"
#include "service/scheduler.hpp"
#include "service/session_manager.hpp"

namespace lumichat::service {

struct LoadSpec {
  /// Concurrent simulated chats.
  std::size_t n_sessions = 500;
  /// Simulated chat time fed per session (warm-up excluded).
  double duration_s = 6.0;
  double sample_rate_hz = 10.0;
  /// Unrecorded chat simulated before frames are fed (camera adaptation).
  double warmup_s = 1.0;
  /// Deterministic fraction of sessions backed by a reenactment attacker.
  double attacker_fraction = 0.5;
  /// Simulation ticks fed (per session) between scheduler pumps. Values
  /// above the session queue capacity exercise drop-oldest backpressure —
  /// still deterministically, because drops depend only on one session's
  /// own feed/drain interleaving, which this driver fixes.
  std::size_t ticks_per_pump = 2;
  /// Full chat simulation (face renderers, optics, codec, network) when
  /// true; the cheap 8x8 synthetic stand-in (reenact::make_call) when false
  /// (used by unit tests and the socket bench, where per-frame cost matters
  /// more than realism).
  bool full_chat = true;
  /// Degradations injected into every simulated chat (full_chat only).
  /// All-zero severities are an exact no-op — same frames, same verdicts.
  faults::FaultConfig faults{};
  std::uint64_t master_seed = 42;
};

/// Outcome of one simulated chat, in session-creation order.
struct SessionResult {
  SessionId id = 0;
  bool truth_attacker = false;
  std::vector<bool> window_verdicts;
  /// Three-way per-window outcomes (window_verdicts mirrors these as bools
  /// for two-way consumers; an abstained window mirrors to false).
  std::vector<core::Verdict> verdicts;
  std::vector<double> lof_scores;
  core::VoteOutcome final_verdict{};
  std::size_t windows_abstained = 0;
  std::size_t pending_samples_dropped = 0;
};

struct LoadReport {
  std::vector<SessionResult> sessions;
  std::size_t sessions_rejected = 0;  ///< admission-control refusals
  std::size_t frames_fed = 0;
  double elapsed_s = 0.0;  ///< drive loop only (setup excluded)
  MetricsSnapshot metrics{};
  /// The run's registry snapshot, taken after the last session was evicted:
  /// the manager's registry plus the scheduler's counters (and, for a
  /// socket run, everything WireServer::stats_snapshot() serves plus the
  /// client's wire.heartbeat_rtt).
  obs::RegistrySnapshot stats;

  [[nodiscard]] double frames_per_sec() const;
  [[nodiscard]] double sessions_per_sec() const;
  /// Fraction of sessions whose final majority verdict matches ground truth.
  [[nodiscard]] double accuracy() const;
};

/// Ground-truth role of simulated chat `ordinal` — a pure function of
/// (spec.master_seed, spec.attacker_fraction, ordinal).
[[nodiscard]] bool load_session_is_attacker(const LoadSpec& spec,
                                            std::size_t ordinal);

/// Wraps `call` so that every frame pair it returns is 8-bit video: each
/// channel is clamped to [0, 255] and rounded half up, in place.
/// set_actor() and apply_faults() pass through to `call`.
[[nodiscard]] std::unique_ptr<reenact::CallSource> make_eight_bit_call(
    std::unique_ptr<reenact::CallSource> call);

/// Builds simulated chat `ordinal`'s frame source — the "client side" of
/// one chat and the exact producer run_load drives internally (full chat or
/// synthetic per spec.full_chat, a pure function of (spec, ordinal,
/// attacker)). Its frames are 8-bit video (make_eight_bit_call), as a
/// camera sends them, so they cross the wire at one byte per channel.
/// Exposed so alternative front-ends — the wire-fed socket bench — can feed
/// bit-identical streams through a different transport.
[[nodiscard]] std::unique_ptr<reenact::CallSource> make_chat_source(
    const LoadSpec& spec, std::size_t ordinal, bool attacker);

/// Runs the scenario against sessions built from `streaming` with the
/// current snapshot of `models` attached (the snapshot-handle entry point —
/// a concurrent publish to `models` hot-swaps the model for sessions
/// created after it). `pool` is used both for frame generation (chats are
/// independent) and for the scheduler's drains; nullptr runs everything
/// serially. `sink` receives every session's RoundExplanations (nullptr =
/// silent).
[[nodiscard]] LoadReport run_load(const LoadSpec& spec,
                                  const ServiceConfig& service_config,
                                  const core::StreamingConfig& streaming,
                                  std::shared_ptr<model::ModelRegistry> models,
                                  obs::ExplanationSink* sink = nullptr,
                                  common::ThreadPool* pool = nullptr);

}  // namespace lumichat::service
