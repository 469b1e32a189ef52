#include "service/load_generator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "chat/alice.hpp"
#include "chat/frame_source.hpp"
#include "chat/respondent.hpp"
#include "common/rng.hpp"
#include "face/face_model.hpp"
#include "faults/plan.hpp"
#include "obs/trace.hpp"
#include "reenact/reenactor.hpp"

namespace lumichat::service {
namespace {

/// The real thing: Alice + (legitimate | reenactor) respondent + network +
/// codec, assembled the same way eval::DatasetBuilder assembles clips, but
/// driven incrementally through chat::SessionFrameSource.
class FullChatSource final : public ChatSource {
 public:
  FullChatSource(const LoadSpec& spec, std::size_t ordinal, bool attacker) {
    const std::uint64_t seed =
        common::derive_seed(spec.master_seed, ordinal);

    // Camera-side degradations (exposure/white-balance drift) attach to the
    // capture specs; link/codec/resolution faults ride in the SessionSpec.
    const faults::FaultPlan drift_plan(spec.faults,
                                       common::derive_seed(seed, 71));

    chat::AliceSpec alice_spec;
    alice_spec.face = face::make_volunteer_face(seed % 10);
    alice_spec.camera.drift = drift_plan.camera_drift(1);
    common::Rng script_rng(common::derive_seed(seed, 61));
    auto script = chat::make_metering_script(spec.duration_s, script_rng);
    alice_ = std::make_unique<chat::AliceStream>(
        alice_spec, std::move(script), common::derive_seed(seed, 62));

    // Session-to-session environment variation, mirroring DatasetBuilder.
    common::Rng env_rng(common::derive_seed(seed, 69));
    const face::FaceModel victim = face::make_volunteer_face(ordinal % 10);
    std::uint64_t session_seed;
    if (attacker) {
      reenact::ReenactorSpec peer_spec;
      peer_spec.victim = victim;
      peer_spec.target_env.screen_distance_m *= env_rng.uniform(0.8, 1.35);
      peer_spec.target_env.ambient.lux_on_face *= env_rng.uniform(0.55, 1.7);
      peer_ = std::make_unique<reenact::ReenactmentAttacker>(
          peer_spec, common::derive_seed(seed, 65));
      session_seed = common::derive_seed(seed, 66);
    } else {
      chat::LegitimateSpec peer_spec;
      peer_spec.face = victim;
      peer_spec.camera.drift = drift_plan.camera_drift(2);
      peer_spec.screen_distance_m *= env_rng.uniform(0.8, 1.35);
      peer_spec.ambient.lux_on_face *= env_rng.uniform(0.55, 1.7);
      peer_ = std::make_unique<chat::LegitimateRespondent>(
          peer_spec, common::derive_seed(seed, 63));
      session_seed = common::derive_seed(seed, 64);
    }

    chat::SessionSpec session_spec;
    session_spec.duration_s = spec.duration_s;
    session_spec.sample_rate_hz = spec.sample_rate_hz;
    session_spec.warmup_s = spec.warmup_s;
    session_spec.faults = spec.faults;
    source_ = std::make_unique<chat::SessionFrameSource>(
        session_spec, *alice_, *peer_, session_seed);
  }

  chat::FramePair next() override { return source_->next(); }

 private:
  std::unique_ptr<chat::AliceStream> alice_;
  std::unique_ptr<chat::RespondentModel> peer_;
  std::unique_ptr<chat::SessionFrameSource> source_;
};

/// Cheap stand-in for tests: tiny flat frames whose luminance follows a
/// square-ish wave — correlated with the transmitted signal for legitimate
/// sessions, independent for attackers. No rendering, no optics; two orders
/// of magnitude cheaper per tick than the full chat.
class SyntheticChatSource final : public ChatSource {
 public:
  SyntheticChatSource(const LoadSpec& spec, std::size_t ordinal,
                      bool attacker)
      : rate_hz_(spec.sample_rate_hz),
        attacker_(attacker),
        rng_(common::derive_seed(common::derive_seed(spec.master_seed,
                                                     ordinal),
                                 91)) {
    phase_ = rng_.uniform(0.0, 6.28);
  }

  chat::FramePair next() override {
    const double t = static_cast<double>(tick_++) / rate_hz_;
    const double square =
        std::sin(0.8 * t + phase_) > 0.0 ? 1.0 : -1.0;
    const double tx = 120.0 + 55.0 * square + rng_.gaussian(0.0, 2.0);
    const double rx =
        attacker_ ? 110.0 + 45.0 * std::sin(1.7 * t + 1.0) +
                        rng_.gaussian(0.0, 2.0)
                  : 0.5 * tx + 30.0 + rng_.gaussian(0.0, 1.0);
    return chat::FramePair{t, flat_frame(tx), flat_frame(rx)};
  }

 private:
  [[nodiscard]] static image::Image flat_frame(double v) {
    return image::Image(8, 8, image::Pixel{v, v, v});
  }

  double rate_hz_;
  bool attacker_;
  common::Rng rng_;
  double phase_ = 0.0;
  std::uint64_t tick_ = 0;
};

}  // namespace

std::unique_ptr<ChatSource> make_chat_source(const LoadSpec& spec,
                                             std::size_t ordinal,
                                             bool attacker) {
  if (spec.full_chat) {
    return std::make_unique<FullChatSource>(spec, ordinal, attacker);
  }
  return std::make_unique<SyntheticChatSource>(spec, ordinal, attacker);
}

bool load_session_is_attacker(const LoadSpec& spec, std::size_t ordinal) {
  const std::uint64_t h =
      common::derive_seed(common::derive_seed(spec.master_seed, ordinal), 7);
  return static_cast<double>(h % 10000) <
         spec.attacker_fraction * 10000.0;
}

double LoadReport::frames_per_sec() const {
  return elapsed_s > 0.0
             ? static_cast<double>(metrics.frames_processed) / elapsed_s
             : 0.0;
}

double LoadReport::sessions_per_sec() const {
  return elapsed_s > 0.0 ? static_cast<double>(sessions.size()) / elapsed_s
                         : 0.0;
}

double LoadReport::accuracy() const {
  if (sessions.empty()) return 0.0;
  std::size_t correct = 0;
  for (const SessionResult& s : sessions) {
    if (s.final_verdict.is_attacker == s.truth_attacker) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(sessions.size());
}

LoadReport run_load(const LoadSpec& spec, const ServiceConfig& service_config,
                    const core::StreamingConfig& streaming,
                    std::shared_ptr<model::ModelRegistry> models,
                    obs::ExplanationSink* sink, common::ThreadPool* pool,
                    obs::MetricsRegistry* registry) {
  SessionManager manager(service_config, streaming, std::move(models), sink);
  FrameScheduler scheduler(pool, registry);
  manager.attach_scheduler(&scheduler);

  obs::Counter* fed_ctr =
      registry != nullptr ? &registry->counter("load.frames_fed") : nullptr;

  struct Chat {
    SessionId id = 0;
    std::size_t ordinal = 0;
    bool attacker = false;
    std::unique_ptr<ChatSource> source;
  };

  // Admission (serial: ids must be assigned in ordinal order so that runs
  // with different pools admit the same set of sessions).
  std::vector<Chat> chats;
  chats.reserve(spec.n_sessions);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < spec.n_sessions; ++i) {
    const bool attacker = load_session_is_attacker(spec, i);
    const std::optional<SessionId> id = manager.create();
    if (!id.has_value()) {
      ++rejected;
      continue;
    }
    chats.push_back(Chat{*id, i, attacker, nullptr});
  }

  // Chat construction fans out: each simulated client is independent.
  {
    const obs::ObsSpan span("load.build_chats", "load");
    common::for_each_index(pool, chats.size(), [&](std::size_t c) {
      chats[c].source =
          make_chat_source(spec, chats[c].ordinal, chats[c].attacker);
    });
  }

  const auto total_ticks = static_cast<std::size_t>(
      std::llround(spec.duration_s * spec.sample_rate_hz));
  const std::size_t stride = std::max<std::size_t>(1, spec.ticks_per_pump);

  std::atomic<std::size_t> fed{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total_ticks; done += stride) {
    const std::size_t ticks = std::min(stride, total_ticks - done);
    // Generation phase: every chat advances `ticks` frames and feeds them.
    common::for_each_index(pool, chats.size(), [&](std::size_t c) {
      for (std::size_t k = 0; k < ticks; ++k) {
        chat::FramePair pair = chats[c].source->next();
        if (manager.feed(chats[c].id, pair.t_sec,
                         std::move(pair.transmitted),
                         std::move(pair.received))) {
          fed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    // Detection phase: drain the backlog across the pool.
    scheduler.pump();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (fed_ctr != nullptr) fed_ctr->add(fed.load(std::memory_order_relaxed));

  LoadReport report;
  report.sessions.reserve(chats.size());
  for (const Chat& c : chats) {
    SessionResult result;
    result.id = c.id;
    result.truth_attacker = c.attacker;
    for (const WindowVerdict& w : manager.verdicts(c.id)) {
      result.window_verdicts.push_back(w.is_attacker);
      result.verdicts.push_back(w.verdict);
      if (w.verdict == core::Verdict::kAbstain) ++result.windows_abstained;
      result.lof_scores.push_back(w.lof_score);
    }
    if (const auto closed = manager.evict(c.id)) {
      result.final_verdict = closed->verdict;
      result.pending_samples_dropped = closed->pending_samples_dropped;
    }
    report.sessions.push_back(std::move(result));
  }
  report.sessions_rejected = rejected;
  report.frames_fed = fed.load(std::memory_order_relaxed);
  report.elapsed_s = elapsed;
  report.metrics = manager.metrics_snapshot();
  return report;
}

}  // namespace lumichat::service
