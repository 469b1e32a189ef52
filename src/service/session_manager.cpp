#include "service/session_manager.hpp"

#include <stdexcept>
#include <utility>

#include "common/env.hpp"
#include "service/scheduler.hpp"

namespace lumichat::service {

std::size_t default_service_capacity() {
  return common::env_positive_integer("LUMICHAT_SERVICE_CAPACITY")
      .value_or(4096);
}

SessionManager::SessionManager(ServiceConfig config,
                               core::StreamingConfig streaming,
                               std::shared_ptr<model::ModelRegistry> models,
                               obs::ExplanationSink* sink)
    : config_(config), streaming_config_(streaming),
      models_(std::move(models)), explain_sink_(sink) {
  if (models_ == nullptr || models_->current() == nullptr) {
    throw std::invalid_argument(
        "SessionManager: the model registry must hold a published snapshot "
        "(sessions attach it; the service never trains)");
  }
  // Sessions build their detectors on demand; build one now so that a
  // configuration the detector rejects (say, a low-pass cut-off at Nyquist)
  // fails here, not at the first create().
  (void)core::StreamingDetector(streaming_config_);
  if (config_.n_shards == 0) config_.n_shards = 1;
  if (config_.max_sessions == 0) {
    config_.max_sessions = default_service_capacity();
  }
  shards_.reserve(config_.n_shards);
  for (std::size_t i = 0; i < config_.n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

core::StreamingDetector SessionManager::checkout_detector() {
  // Fetch the model first: one registry read per create, so a
  // concurrent publish() swaps the model for this session or the next one,
  // never mid-construction.
  std::shared_ptr<const model::LofModelSnapshot> snapshot = models_->current();
  {
    const std::lock_guard<std::mutex> lock(freelist_mu_);
    if (!freelist_.empty()) {
      core::StreamingDetector recycled = std::move(freelist_.back());
      freelist_.pop_back();
      recycled.attach_model(std::move(snapshot));  // pick up any hot-swap
      return recycled;
    }
  }
  core::StreamingDetector detector(streaming_config_);
  detector.attach_model(std::move(snapshot));
  detector.set_explanation_sink(explain_sink_);
  return detector;
}

std::optional<SessionId> SessionManager::create() {
  // Optimistic reservation: claim a slot first so two racing creates cannot
  // both squeeze past the cap, release it if that overshot.
  const std::size_t prior = active_.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= config_.max_sessions) {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    instruments_.sessions_rejected.add();
    return std::nullopt;
  }
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  core::StreamingDetector detector = checkout_detector();
  detector.set_stream_id(id);  // labels the session's RoundExplanations
  auto session = std::make_shared<ServiceSession>(
      id, std::move(detector), config_.session_queue_capacity, instruments_);
  if (flight_ != nullptr) {
    session->set_flight_recorder(flight_,
                                 static_cast<std::size_t>(id % flight_->lanes()));
  }
  Shard& shard = shard_of(id);
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.sessions.emplace(id, std::move(session));
  }
  instruments_.sessions_created.add();
  return id;
}

std::vector<std::size_t> SessionManager::shard_session_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    counts.push_back(shard->sessions.size());
  }
  return counts;
}

std::shared_ptr<ServiceSession> SessionManager::find(SessionId id) const {
  const Shard& shard = shard_of(id);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.sessions.find(id);
  return it == shard.sessions.end() ? nullptr : it->second;
}

bool SessionManager::feed(SessionId id, double t_sec,
                          image::Image transmitted, image::Image received) {
  FrameJob job;
  job.t_sec = t_sec;
  job.transmitted = std::move(transmitted);
  job.received = std::move(received);
  job.enqueued_at = ServiceClock::now();
  return feed(id, std::move(job));
}

bool SessionManager::feed(SessionId id, FrameJob&& job) {
  const std::shared_ptr<ServiceSession> session = find(id);
  if (session == nullptr) {
    release_frame_job(std::move(job));
    return false;
  }

  bool dropped = false;
  if (!session->enqueue(std::move(job), &dropped)) return false;
  instruments_.frames_in.add();
  if (dropped) instruments_.frames_dropped.add();

  if (scheduler_ != nullptr) {
    scheduler_->notify(session);
  } else if (session->try_mark_ready()) {
    do {
      session->drain();
    } while (session->finish_drain());
  }
  return true;
}

MetricsSnapshot SessionManager::metrics_snapshot() const {
  const ServiceInstruments& m = instruments_;
  MetricsSnapshot s;
  s.sessions_created = m.sessions_created.value();
  s.sessions_rejected = m.sessions_rejected.value();
  s.sessions_evicted = m.sessions_evicted.value();
  s.sessions_active = active_.load(std::memory_order_relaxed);
  s.frames_in = m.frames_in.value();
  s.frames_dropped = m.frames_dropped.value();
  s.frames_processed = m.frames_processed.value();
  s.windows_completed = m.windows_completed.value();
  s.verdicts_legit = m.verdicts_legit.value();
  s.verdicts_attacker = m.verdicts_attacker.value();
  s.verdicts_abstain = m.verdicts_abstain.value();
  s.latency_p50_s = m.push_to_verdict.quantile(0.50);
  s.latency_p95_s = m.push_to_verdict.quantile(0.95);
  s.latency_p99_s = m.push_to_verdict.quantile(0.99);
  s.latency_p999_s = m.push_to_verdict.quantile(0.999);
  s.latency_mean_s = m.push_to_verdict.mean();
  s.latency_max_s = m.push_to_verdict.max();
  return s;
}

std::optional<core::VoteOutcome> SessionManager::running_verdict(
    SessionId id) const {
  const std::shared_ptr<ServiceSession> session = find(id);
  if (session == nullptr) return std::nullopt;
  return session->running_verdict();
}

std::vector<WindowVerdict> SessionManager::verdicts(SessionId id) const {
  const std::shared_ptr<ServiceSession> session = find(id);
  return session == nullptr ? std::vector<WindowVerdict>{}
                            : session->verdicts();
}

std::size_t SessionManager::verdict_count(SessionId id) const {
  const std::shared_ptr<ServiceSession> session = find(id);
  return session == nullptr ? 0 : session->verdict_count();
}

std::size_t SessionManager::copy_verdicts(SessionId id, std::size_t from,
                                          WindowVerdict* out,
                                          std::size_t max) const {
  const std::shared_ptr<ServiceSession> session = find(id);
  return session == nullptr ? 0 : session->copy_verdicts(from, out, max);
}

std::optional<ServiceSession::CloseReport> SessionManager::evict(
    SessionId id) {
  std::shared_ptr<ServiceSession> session;
  Shard& shard = shard_of(id);
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return std::nullopt;
    session = std::move(it->second);
    shard.sessions.erase(it);
  }
  ServiceSession::CloseReport report = session->close();

  core::StreamingDetector recycled = session->take_detector();
  recycled.reset();
  {
    const std::lock_guard<std::mutex> lock(freelist_mu_);
    if (freelist_.size() < config_.detector_freelist_capacity) {
      freelist_.push_back(std::move(recycled));
    }
  }
  active_.fetch_sub(1, std::memory_order_acq_rel);
  instruments_.sessions_evicted.add();
  return report;
}

}  // namespace lumichat::service
