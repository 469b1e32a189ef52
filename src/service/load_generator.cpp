#include "service/load_generator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "chat/session.hpp"
#include "common/rng.hpp"
#include "face/face_model.hpp"

namespace lumichat::service {
namespace {

/// Rounds a channel to 8 bits as a camera stores it: clamp to [0, 255],
/// then round half up (the formula paperbench's corpus uses).
double to_byte_value(double v) {
  return static_cast<double>(
      static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5));
}

void round_to_bytes(image::Image& frame) {
  image::Pixel* px = frame.data();
  for (std::size_t i = 0; i < frame.pixels().size(); ++i) {
    px[i] = image::Pixel{to_byte_value(px[i].r), to_byte_value(px[i].g),
                         to_byte_value(px[i].b)};
  }
}

class EightBitCall final : public reenact::CallSource {
 public:
  explicit EightBitCall(std::unique_ptr<reenact::CallSource> call)
      : call_(std::move(call)) {}

  chat::FramePair next() override {
    chat::FramePair pair = call_->next();
    round_to_bytes(pair.transmitted);
    round_to_bytes(pair.received);
    return pair;
  }
  void set_actor(reenact::PeerRole role) override { call_->set_actor(role); }
  void apply_faults(const faults::FaultConfig& config,
                    std::uint64_t phase) override {
    call_->apply_faults(config, phase);
  }

 private:
  std::unique_ptr<reenact::CallSource> call_;
};

}  // namespace

std::unique_ptr<reenact::CallSource> make_eight_bit_call(
    std::unique_ptr<reenact::CallSource> call) {
  return std::make_unique<EightBitCall>(std::move(call));
}

std::unique_ptr<reenact::CallSource> make_chat_source(const LoadSpec& spec,
                                                      std::size_t ordinal,
                                                      bool attacker) {
  // One call per ordinal; seed streams as documented in reenact/call.hpp.
  reenact::CallRecipe recipe;
  recipe.session.duration_s = spec.duration_s;
  recipe.session.sample_rate_hz = spec.sample_rate_hz;
  recipe.session.warmup_s = spec.warmup_s;
  recipe.session.faults = spec.faults;
  recipe.victim = face::make_volunteer_face(ordinal % 10);
  return make_eight_bit_call(reenact::make_call(
      recipe, common::derive_seed(spec.master_seed, ordinal),
      attacker ? reenact::PeerRole::kAttacker : reenact::PeerRole::kLegitimate,
      spec.full_chat));
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
                    obs::ExplanationSink* sink, common::ThreadPool* pool) {
  const std::size_t total_ticks =
      chat::tick_count(spec.duration_s, spec.sample_rate_hz);
  SessionManager manager(service_config, streaming, std::move(models), sink);
  FrameScheduler scheduler(pool);
  manager.attach_scheduler(&scheduler);

  struct Chat {
    SessionId id = 0;
    std::size_t ordinal = 0;
    bool attacker = false;
    std::unique_ptr<reenact::CallSource> source;
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
  common::for_each_index(pool, chats.size(), [&](std::size_t c) {
    chats[c].source =
        make_chat_source(spec, chats[c].ordinal, chats[c].attacker);
  });

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
  report.stats = manager.metrics().snapshot();
  scheduler.append_counters(report.stats);
  return report;
}

}  // namespace lumichat::service
