#include "service/session.hpp"

#include <algorithm>
#include <utility>

namespace lumichat::service {

ServiceInstruments::ServiceInstruments(obs::MetricsRegistry& registry)
    : sessions_created(registry.counter("service.sessions_created")),
      sessions_rejected(registry.counter("service.sessions_rejected")),
      sessions_evicted(registry.counter("service.sessions_evicted")),
      frames_in(registry.counter("service.frames_in")),
      frames_dropped(registry.counter("service.frames_dropped")),
      frames_processed(registry.counter("service.frames_processed")),
      windows_completed(registry.counter("service.windows_completed")),
      verdicts_legit(registry.counter("service.verdicts_legit")),
      verdicts_attacker(registry.counter("service.verdicts_attacker")),
      verdicts_abstain(registry.counter("service.verdicts_abstain")),
      push_to_verdict(registry.histogram("service.push_to_verdict")),
      queue_wait(registry.histogram("service.stage.queue_wait")),
      detect(registry.histogram("service.stage.detect")),
      window(registry.histogram("service.stage.window")) {}

ServiceSession::ServiceSession(SessionId id, core::StreamingDetector detector,
                               std::size_t queue_capacity,
                               const ServiceInstruments& metrics)
    : id_(id),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      metrics_(metrics),
      ring_(queue_capacity_),
      detector_(std::move(detector)) {
  drain_batch_.reserve(queue_capacity_);
}

bool ServiceSession::enqueue(FrameJob job, bool* dropped) {
  if (dropped != nullptr) *dropped = false;
  const std::lock_guard<std::mutex> lock(queue_mu_);
  if (closed_.load(std::memory_order_relaxed)) {
    release_frame_job(std::move(job));
    return false;
  }
  if (ring_count_ >= queue_capacity_) {
    // Drop-oldest backpressure: give the stale head's storage back to its
    // pool, then let the new job take the slot.
    release_frame_job(std::move(ring_[ring_head_]));
    ring_[ring_head_] = std::move(job);
    ring_head_ = (ring_head_ + 1) % queue_capacity_;
    if (dropped != nullptr) *dropped = true;
    return true;
  }
  ring_[(ring_head_ + ring_count_) % queue_capacity_] = std::move(job);
  ++ring_count_;
  return true;
}

bool ServiceSession::try_mark_ready() {
  return !ready_.exchange(true, std::memory_order_acq_rel);
}

std::size_t ServiceSession::drain() {
  drain_batch_.clear();
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    while (ring_count_ > 0) {
      drain_batch_.push_back(std::move(ring_[ring_head_]));
      ring_head_ = (ring_head_ + 1) % queue_capacity_;
      --ring_count_;
    }
  }
  if (drain_batch_.empty()) return 0;

  const std::lock_guard<std::mutex> lock(state_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    // Raced with close(): the session's detector is already flushed (and
    // possibly recycled), so the late batch is accounted as dropped.
    metrics_.frames_dropped.add(drain_batch_.size());
    for (FrameJob& job : drain_batch_) release_frame_job(std::move(job));
    drain_batch_.clear();
    return 0;
  }
  std::size_t processed = 0;
  for (FrameJob& job : drain_batch_) {
    const ServiceClock::time_point t_pickup = ServiceClock::now();
    const auto verdict =
        job.eight_bit
            ? detector_.push(job.t_sec, job.transmitted_u8, job.received_u8)
            : detector_.push(job.t_sec, job.transmitted, job.received);
    ++processed;
    const ServiceClock::time_point t_done = ServiceClock::now();
    const double queue_wait =
        std::chrono::duration<double>(t_pickup - job.enqueued_at).count();
    const double detect =
        std::chrono::duration<double>(t_done - t_pickup).count();
    metrics_.frames_processed.add();
    metrics_.queue_wait.record(queue_wait);
    metrics_.detect.record(detect);
    if (verdict.has_value()) {
      const double latency =
          std::chrono::duration<double>(t_done - job.enqueued_at).count();
      WindowVerdict w{history_.size(), verdict->is_attacker, verdict->verdict,
                      verdict->lof_score,  latency,           job.trace_id,
                      job.decode_s,        queue_wait,        detect,
                      t_done};
      history_.push_back(w);
      metrics_.windows_completed.add();
      metrics_.window.record(detect);
      switch (verdict->verdict) {
        case core::Verdict::kAttacker: metrics_.verdicts_attacker.add(); break;
        case core::Verdict::kLegitimate: metrics_.verdicts_legit.add(); break;
        case core::Verdict::kAbstain: metrics_.verdicts_abstain.add(); break;
      }
      metrics_.push_to_verdict.record(latency);
      if (flight_ != nullptr) record_flight(w);
    }
    release_frame_job(std::move(job));
  }
  drain_batch_.clear();
  frames_processed_ += processed;
  return processed;
}

void ServiceSession::set_flight_recorder(obs::FlightRecorder* recorder,
                                         std::size_t lane) {
  const std::lock_guard<std::mutex> lock(state_mu_);
  flight_ = recorder;
  flight_lane_ = lane;
  have_last_verdict_ = false;
  abstain_run_ = 0;
}

void ServiceSession::record_flight(const WindowVerdict& w) {
  obs::FlightEntry entry;
  entry.trace_id = w.trace_id;
  entry.session_id = id_;
  entry.window_index = static_cast<std::uint32_t>(w.window_index);
  entry.kind = obs::FlightKind::kFrame;
  entry.verdict = static_cast<std::uint8_t>(w.verdict);
  entry.is_attacker = w.is_attacker ? 1 : 0;
  entry.lof_score = w.lof_score;
  entry.decode_s = w.decode_s;
  entry.queue_wait_s = w.queue_wait_s;
  entry.detect_s = w.detect_s;
  entry.total_s = w.push_to_verdict_s;
  flight_->record(flight_lane_, entry);

  // Trigger markers: a verdict flipping to "attacker" or a burst of
  // abstains is exactly the moment a postmortem wants the ring dumped.
  if (have_last_verdict_ && w.verdict != last_verdict_ &&
      w.verdict == core::Verdict::kAttacker) {
    entry.kind = obs::FlightKind::kVerdictFlip;
    flight_->record(flight_lane_, entry);
  }
  last_verdict_ = w.verdict;
  have_last_verdict_ = true;

  if (w.verdict == core::Verdict::kAbstain) {
    if (++abstain_run_ == kAbstainBurstLen) {
      entry.kind = obs::FlightKind::kAbstainBurst;
      flight_->record(flight_lane_, entry);
    }
  } else {
    abstain_run_ = 0;
  }
}

bool ServiceSession::finish_drain() {
  const std::lock_guard<std::mutex> lock(queue_mu_);
  if (ring_count_ == 0) {
    ready_.store(false, std::memory_order_release);
    return false;
  }
  return true;  // ownership retained; caller must schedule another drain
}

core::VoteOutcome ServiceSession::running_verdict() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return detector_.running_verdict();
}

std::vector<WindowVerdict> ServiceSession::verdicts() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return history_;
}

std::size_t ServiceSession::verdict_count() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return history_.size();
}

std::size_t ServiceSession::copy_verdicts(std::size_t from, WindowVerdict* out,
                                          std::size_t max) const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  if (from >= history_.size() || max == 0) return 0;
  const std::size_t n = std::min(max, history_.size() - from);
  for (std::size_t i = 0; i < n; ++i) out[i] = history_[from + i];
  return n;
}

std::size_t ServiceSession::frames_processed() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return frames_processed_;
}

std::size_t ServiceSession::queued_frames() const {
  const std::lock_guard<std::mutex> lock(queue_mu_);
  return ring_count_;
}

ServiceSession::CloseReport ServiceSession::close() {
  std::size_t discarded = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    closed_.store(true, std::memory_order_release);
    discarded = ring_count_;
    while (ring_count_ > 0) {
      release_frame_job(std::move(ring_[ring_head_]));
      ring_[ring_head_] = FrameJob{};
      ring_head_ = (ring_head_ + 1) % queue_capacity_;
      --ring_count_;
    }
  }
  metrics_.frames_dropped.add(discarded);

  const std::lock_guard<std::mutex> lock(state_mu_);
  CloseReport report;
  report.windows_completed = history_.size();
  report.verdict = detector_.running_verdict();
  report.window_verdicts = history_;
  const core::FlushReport flushed = detector_.flush();
  report.pending_samples_dropped = flushed.pending_samples;
  report.window_fill = flushed.window_fill;
  if (flight_ != nullptr) {
    obs::FlightEntry entry;
    entry.session_id = id_;
    entry.kind = obs::FlightKind::kSessionEvict;
    entry.window_index = static_cast<std::uint32_t>(report.windows_completed);
    flight_->record(flight_lane_, entry);
  }
  return report;
}

core::StreamingDetector ServiceSession::take_detector() {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return std::move(detector_);
}

}  // namespace lumichat::service
