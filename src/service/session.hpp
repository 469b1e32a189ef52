// One hosted verification session: a StreamingDetector behind a bounded
// frame queue.
//
// Concurrency contract (what keeps the runtime deterministic):
//   * enqueue() may be called from any thread; the queue is a FIFO with
//     drop-oldest backpressure, so a slow session sheds its stalest frames
//     instead of growing without bound or stalling its feeder.
//   * drain() is serialized by the ready-flag protocol: only the caller that
//     won try_mark_ready() may drain, and it gives ownership back with
//     finish_drain(). The detector therefore has exactly one writer at any
//     moment, and a session's frames are processed in feed order no matter
//     how many pool workers the scheduler uses — which is why per-session
//     verdict sequences are bit-identical across thread counts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/streaming.hpp"
#include "core/voting.hpp"
#include "image/image.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace lumichat::service {

using SessionId = std::uint64_t;
using ServiceClock = std::chrono::steady_clock;

struct FrameJob;

/// Owner of pooled frame storage (the wire layer's FrameArena). A job
/// carrying a recycler gives its images back instead of freeing them, which
/// is what makes the steady-state ingest path allocation-free: the same
/// buffers cycle decode -> queue -> detector -> arena forever. recycle()
/// must be callable from any thread and must not throw.
class FrameRecycler {
 public:
  virtual void recycle(FrameJob&& job) noexcept = 0;

 protected:
  ~FrameRecycler() = default;
};

/// The service.* instruments of one SessionManager's registry, resolved once
/// at construction. Sessions and the manager bump them through these
/// references, so no per-frame path ever does a name lookup.
struct ServiceInstruments {
  explicit ServiceInstruments(obs::MetricsRegistry& registry);

  obs::Counter& sessions_created;
  obs::Counter& sessions_rejected;  ///< admission-control rejections
  obs::Counter& sessions_evicted;
  obs::Counter& frames_in;          ///< accepted by feed()
  obs::Counter& frames_dropped;     ///< backpressure + eviction discards
  obs::Counter& frames_processed;   ///< pushed through a detector
  obs::Counter& windows_completed;
  obs::Counter& verdicts_legit;
  obs::Counter& verdicts_attacker;
  obs::Counter& verdicts_abstain;   ///< degraded-input non-votes
  obs::LogHistogram& push_to_verdict;  ///< enqueue -> verdict, completing frame
  obs::LogHistogram& queue_wait;       ///< enqueue -> drain pickup
  obs::LogHistogram& detect;           ///< detector work inside the drain
  /// The detect samples of the pushes that closed a window (the window
  /// step: preprocess, features, LOF); one per windows_completed.
  obs::LogHistogram& window;
};

/// One queued frame pair awaiting detection, in one of two forms: the f64
/// images an in-process caller feeds, or (when `eight_bit` is set) the
/// 8-bit planes every wire frame arrives as. Both give the same verdicts;
/// the 8-bit form is never widened.
struct FrameJob {
  double t_sec = 0.0;
  image::Image transmitted;
  image::Image received;
  image::ImageU8 transmitted_u8;
  image::ImageU8 received_u8;
  /// The pair is in the *_u8 planes; the images are unused (and, in a wire
  /// job, empty).
  bool eight_bit = false;
  ServiceClock::time_point enqueued_at{};
  /// Wire-propagated trace/frame id (0 when the peer sent none); carried
  /// through the queue so the verdict and flight-recorder timeline can be
  /// joined back to the client's frame.
  std::uint64_t trace_id = 0;
  /// Wall seconds the frame spent in wire decode before enqueue (0 for
  /// frames that never crossed the wire).
  double decode_s = 0.0;
  /// Borrowed pool to return the images to after processing (or on drop);
  /// null for plainly owned frames, which are simply destroyed.
  FrameRecycler* recycler = nullptr;
};

/// Returns a job's storage to its pool, if it has one. Clears the job's
/// recycler pointer first, so calling it again on the same job is a no-op.
inline void release_frame_job(FrameJob&& job) {
  if (job.recycler != nullptr) {
    FrameRecycler* pool = job.recycler;
    job.recycler = nullptr;
    pool->recycle(std::move(job));
  }
}

/// One completed detection window of a hosted session.
struct WindowVerdict {
  std::size_t window_index = 0;
  bool is_attacker = false;
  /// Three-way outcome; is_attacker mirrors it for two-way consumers and is
  /// false when the window abstained (degraded input, see DetectorConfig).
  core::Verdict verdict = core::Verdict::kLegitimate;
  double lof_score = 0.0;
  /// Wall time from enqueue of the window-completing frame to its verdict.
  double push_to_verdict_s = 0.0;
  /// Trace id of the window-completing frame (0 when the peer sent none).
  std::uint64_t trace_id = 0;
  /// Per-stage breakdown for the window-completing frame.
  double decode_s = 0.0;
  double queue_wait_s = 0.0;
  double detect_s = 0.0;
  /// When the verdict was computed; the wire layer measures its push stage
  /// (completed_at -> encode onto the socket) from this.
  ServiceClock::time_point completed_at{};
};

class ServiceSession {
 public:
  /// `metrics` is borrowed from the owning manager.
  ServiceSession(SessionId id, core::StreamingDetector detector,
                 std::size_t queue_capacity,
                 const ServiceInstruments& metrics);

  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  [[nodiscard]] SessionId id() const { return id_; }

  /// Enqueues a frame pair. Returns false once the session is closed. Sets
  /// `*dropped` when the queue was full and the oldest frame was shed.
  bool enqueue(FrameJob job, bool* dropped = nullptr);

  /// Claims exclusive drain ownership. True means the caller must drain and
  /// then call finish_drain(); false means another drainer already owns it.
  [[nodiscard]] bool try_mark_ready();

  /// Processes every queued frame through the detector, recording window
  /// verdicts. Caller must own the ready flag. Returns frames processed.
  std::size_t drain();

  /// Releases drain ownership. Returns true when frames arrived during the
  /// drain — the flag stays claimed and the caller must schedule another
  /// drain (otherwise those frames would sit until the next enqueue).
  [[nodiscard]] bool finish_drain();

  [[nodiscard]] core::VoteOutcome running_verdict() const;
  [[nodiscard]] std::vector<WindowVerdict> verdicts() const;
  [[nodiscard]] std::size_t frames_processed() const;
  [[nodiscard]] std::size_t queued_frames() const;

  /// Completed windows so far — the wire layer's verdict watermark.
  [[nodiscard]] std::size_t verdict_count() const;

  /// Copies verdicts [from, from+max) into the caller-supplied array and
  /// returns how many were copied. Allocation-free (unlike verdicts()),
  /// which is what the per-poll verdict flush on the ingest path needs.
  std::size_t copy_verdicts(std::size_t from, WindowVerdict* out,
                            std::size_t max) const;

  /// Final accounting returned by SessionManager::evict.
  struct CloseReport {
    std::size_t windows_completed = 0;
    core::VoteOutcome verdict{};
    std::vector<WindowVerdict> window_verdicts;
    /// Evidence lost by tearing the session down mid-window.
    std::size_t pending_samples_dropped = 0;
    double window_fill = 0.0;
  };

  /// Closes the session: future enqueues are rejected, queued frames are
  /// discarded (counted as dropped), the partial window is flushed and the
  /// final verdict computed. Blocks until an in-flight drain finishes.
  CloseReport close();

  /// Extracts the detector for recycling. Only valid after close().
  [[nodiscard]] core::StreamingDetector take_detector();

  /// Attaches a flight recorder (borrowed, may be null to detach): every
  /// completed window records its timeline into `lane`, and trigger events
  /// (verdict flip to fake, abstain burst) record marker entries.
  void set_flight_recorder(obs::FlightRecorder* recorder, std::size_t lane);

  /// Consecutive abstains that count as a burst (flight-recorder trigger).
  static constexpr std::size_t kAbstainBurstLen = 3;

 private:
  /// Records a window's timeline (+ flip/abstain-burst markers) into the
  /// flight recorder. Caller holds state_mu_.
  void record_flight(const WindowVerdict& w);

  const SessionId id_;
  const std::size_t queue_capacity_;
  const ServiceInstruments& metrics_;

  // The frame queue is a fixed ring over pre-constructed slots: enqueue
  // move-assigns into a slot and pop move-assigns out, so steady-state
  // traffic performs no queue allocation at all (a deque would allocate a
  // node every few frames). Capacity is the configured bound; drop-oldest
  // recycles the displaced job's storage before overwriting it.
  mutable std::mutex queue_mu_;
  std::vector<FrameJob> ring_;       // guarded by queue_mu_; size == capacity
  std::size_t ring_head_ = 0;        // guarded by queue_mu_
  std::size_t ring_count_ = 0;       // guarded by queue_mu_
  std::atomic<bool> closed_{false};  // set under queue_mu_, read anywhere
  std::atomic<bool> ready_{false};   // drain-ownership flag

  /// Drain staging area. Only the drain owner touches it (the ready-flag
  /// protocol guarantees one drainer), and it keeps its capacity across
  /// drains so the move-out of the ring allocates nothing in steady state.
  std::vector<FrameJob> drain_batch_;

  mutable std::mutex state_mu_;  // detector + verdict history
  core::StreamingDetector detector_;
  std::vector<WindowVerdict> history_;
  std::size_t frames_processed_ = 0;

  // Flight-recorder wiring + trigger state (guarded by state_mu_; only
  // maintained while a recorder is attached).
  obs::FlightRecorder* flight_ = nullptr;  ///< borrowed; may be null
  std::size_t flight_lane_ = 0;
  bool have_last_verdict_ = false;
  core::Verdict last_verdict_ = core::Verdict::kLegitimate;
  std::size_t abstain_run_ = 0;
};

}  // namespace lumichat::service
