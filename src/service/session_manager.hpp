// Multi-tenant ownership of concurrent verification sessions.
//
// The manager shards its session table: session id -> shard (id % n_shards),
// each shard a map behind its own mutex, so lookups for different sessions
// almost never contend — the lock is held only for the map operation itself,
// never while a frame is processed. Admission control caps the number of
// live sessions (reject new callers past capacity rather than degrading
// everyone already admitted), and evicted sessions return their detector to
// a freelist where StreamingDetector::reset() makes it bit-identical to a
// freshly constructed one.
//
// The trained LOF model is NOT owned by the manager or by any session:
// every detector holds a shared_ptr<const model::LofModelSnapshot> handle
// into the manager's ModelRegistry. Session creation attaches the
// registry's *current* snapshot (a pointer swap — no training data is ever
// copied), so publishing a new model version through the registry hot-swaps
// the model for all sessions created afterwards while sessions already
// running keep their snapshot alive until they retire — zero stall, no
// torn state.
//
// Lifecycle:   create() -> feed()* -> running_verdict()/verdicts() -> evict()
//
// feed() routes frames through the attached FrameScheduler when one is set
// (the concurrent runtime); without a scheduler it drains inline, which is
// the synchronous single-caller mode tests and simple embedders use.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/streaming.hpp"
#include "model/registry.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"

namespace lumichat::service {

class FrameScheduler;

/// LUMICHAT_SERVICE_CAPACITY environment variable if it is a positive
/// decimal integer (parsed exactly like LUMICHAT_THREADS), else 4096.
[[nodiscard]] std::size_t default_service_capacity();

/// Point-in-time values of a SessionManager's service.* instruments.
struct MetricsSnapshot {
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_rejected = 0;  ///< admission-control rejections
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_active = 0;
  std::uint64_t frames_in = 0;        ///< accepted by feed()
  std::uint64_t frames_dropped = 0;   ///< backpressure + eviction discards
  std::uint64_t frames_processed = 0;  ///< pushed through a detector
  std::uint64_t windows_completed = 0;
  std::uint64_t verdicts_legit = 0;
  std::uint64_t verdicts_attacker = 0;
  std::uint64_t verdicts_abstain = 0;  ///< degraded-input non-votes
  double latency_p50_s = 0.0;  ///< push-to-verdict, completing frame
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_p999_s = 0.0;
  double latency_mean_s = 0.0;  ///< exact (not bucket-resolution) mean
  double latency_max_s = 0.0;   ///< exact worst case
};

struct ServiceConfig {
  std::size_t n_shards = 16;
  /// Admission-control cap on concurrently live sessions.
  std::size_t max_sessions = 0;  ///< 0 = default_service_capacity()
  /// Bounded per-session frame queue (drop-oldest past this).
  std::size_t session_queue_capacity = 32;
  /// Reset detectors kept for reuse across sessions.
  std::size_t detector_freelist_capacity = 256;
};

class SessionManager {
 public:
  /// The snapshot-handle entry point: sessions run detectors built from
  /// `streaming` with the current snapshot of `models` attached at
  /// create() time. `models` must hold a published snapshot and is shared —
  /// publishing a new version through it hot-swaps the model for sessions
  /// created afterwards. `sink` is where every session's RoundExplanations
  /// go (borrowed; defaults to the process default sink, nullptr = silent).
  SessionManager(ServiceConfig config, core::StreamingConfig streaming,
                 std::shared_ptr<model::ModelRegistry> models,
                 obs::ExplanationSink* sink = obs::default_explanation_sink());

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Routes feeds through `scheduler` (borrowed; must outlive the manager).
  /// Pass nullptr to return to inline draining.
  void attach_scheduler(FrameScheduler* scheduler) { scheduler_ = scheduler; }

  /// Attaches a flight recorder (borrowed; must outlive the manager, null
  /// detaches). Sessions created afterwards record their window timelines
  /// into lane (session id % recorder lanes). Attach before creating
  /// sessions — existing sessions are not rewired.
  void attach_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return flight_;
  }

  /// Live session count per shard (sized n_shards). Takes each shard lock
  /// briefly; a monitoring-rate call, not a hot-path one.
  [[nodiscard]] std::vector<std::size_t> shard_session_counts() const;

  /// Admits a new session, or std::nullopt when at capacity.
  [[nodiscard]] std::optional<SessionId> create();

  /// The shard whose table holds session `id` (id % n_shards).
  [[nodiscard]] std::size_t shard_index(SessionId id) const {
    return static_cast<std::size_t>(id % shards_.size());
  }

  /// Feeds one simultaneous frame pair at session time `t_sec`. Thread-safe
  /// for distinct sessions; frames of one session must be fed in order by a
  /// single caller at a time (the natural shape: one chat, one feeder).
  /// Returns false for unknown or closed sessions.
  bool feed(SessionId id, double t_sec, image::Image transmitted,
            image::Image received);

  /// Pooled-frame variant: the caller supplies a fully formed job (with
  /// enqueued_at already stamped at decode time, so queueing delay inside
  /// the wire front-end counts toward push-to-verdict latency). The manager
  /// consumes the job in all cases — on failure its storage has already
  /// been returned to the job's recycler.
  bool feed(SessionId id, FrameJob&& job);

  /// Majority vote over the session's completed windows so far.
  [[nodiscard]] std::optional<core::VoteOutcome> running_verdict(
      SessionId id) const;

  /// Per-window verdict history (empty for unknown sessions).
  [[nodiscard]] std::vector<WindowVerdict> verdicts(SessionId id) const;

  /// Completed windows so far (0 for unknown sessions). Allocation-free;
  /// the wire layer polls this as its per-stream verdict watermark.
  [[nodiscard]] std::size_t verdict_count(SessionId id) const;

  /// Copies verdicts [from, from+max) into the caller-supplied array,
  /// returning how many were copied. Allocation-free (unlike verdicts()).
  std::size_t copy_verdicts(SessionId id, std::size_t from,
                            WindowVerdict* out, std::size_t max) const;

  /// Tears the session down and returns its final accounting, including how
  /// much partial-window evidence was discarded. std::nullopt if unknown.
  std::optional<ServiceSession::CloseReport> evict(SessionId id);

  /// The shared model registry; publish() or install() on it to hot-swap the
  /// model for subsequently created sessions with zero session stall.
  [[nodiscard]] const std::shared_ptr<model::ModelRegistry>& models() const {
    return models_;
  }

  [[nodiscard]] std::size_t active_sessions() const {
    return active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return config_.max_sessions; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// The service's one registry, always on: the service.* counters and the
  /// service.push_to_verdict / service.stage.{queue_wait,detect}
  /// histograms, plus whatever a front end in front of the manager (the
  /// WireServer's wire.* instruments) resolves from it through the
  /// non-const overload. sessions_active is not in it (active_sessions()
  /// is).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<SessionId, std::shared_ptr<ServiceSession>> sessions;
  };

  [[nodiscard]] Shard& shard_of(SessionId id) const {
    return *shards_[shard_index(id)];
  }
  [[nodiscard]] std::shared_ptr<ServiceSession> find(SessionId id) const;
  [[nodiscard]] core::StreamingDetector checkout_detector();

  ServiceConfig config_;
  core::StreamingConfig streaming_config_;
  std::shared_ptr<model::ModelRegistry> models_;
  obs::ExplanationSink* explain_sink_ = nullptr;  ///< borrowed; may be null
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<SessionId> next_id_{1};
  std::atomic<std::size_t> active_{0};
  FrameScheduler* scheduler_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;  ///< borrowed; may be null
  obs::MetricsRegistry metrics_;
  /// Resolved from metrics_ once; sessions get a reference to it.
  ServiceInstruments instruments_{metrics_};

  std::mutex freelist_mu_;
  std::vector<core::StreamingDetector> freelist_;
};

}  // namespace lumichat::service
