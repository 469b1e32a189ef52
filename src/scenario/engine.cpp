#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "chat/alice.hpp"
#include "chat/frame_source.hpp"
#include "chat/respondent.hpp"
#include "common/rng.hpp"
#include "face/face_model.hpp"
#include "faults/plan.hpp"
#include "obs/trace.hpp"
#include "reenact/reenactor.hpp"
#include "service/scheduler.hpp"

namespace lumichat::scenario {
namespace {

/// One caller's frame producer with the two mutation hooks the timeline
/// needs: swap who answers, re-plan the degradations.
class ScenarioChatSource {
 public:
  virtual ~ScenarioChatSource() = default;
  [[nodiscard]] virtual chat::FramePair next() = 0;
  virtual void set_actor(Actor actor) = 0;
  virtual void apply_faults(const faults::FaultConfig& config,
                            std::uint64_t phase) = 0;
};

/// Metering script for a long call, built as one independent probe round
/// per detection window (each segment keeps make_metering_script's tail
/// margin, so no touch lands so late that its reflection spills into the
/// next window). This is the paper's protocol shape — the verifier drives a
/// probe sequence per detection round (Sec. VII) — and it is what keeps
/// mid-call windows free of boundary-truncated probe/response pairs, which
/// read exactly like a missing reflection (a false attacker).
std::vector<chat::MeterEvent> make_round_script(double duration_s,
                                                double window_s,
                                                common::Rng& rng) {
  std::vector<chat::MeterEvent> script;
  for (double t0 = 0.0; t0 < duration_s; t0 += window_s) {
    std::vector<chat::MeterEvent> round = chat::make_metering_script(
        std::min(window_s, duration_s - t0), rng);
    // A later round must continue from where the previous one parked the
    // spot: a target flip at the exact window boundary has no visible
    // transmitted edge (no baseline before sample 0) but a mid-window
    // reflection — an unmatched received change that reads as an attacker.
    // Targets alternate window/shelf, so mirroring the whole round keeps
    // its gap structure while removing the boundary flip.
    if (!script.empty() && !round.empty() &&
        round.front().target != script.back().target) {
      for (chat::MeterEvent& e : round) {
        e.target = e.target == chat::MeterTarget::kWindow
                       ? chat::MeterTarget::kShelf
                       : chat::MeterTarget::kWindow;
      }
    }
    const bool drop_lead = !script.empty();  // boundary event is now a no-op
    for (std::size_t i = drop_lead ? 1 : 0; i < round.size(); ++i) {
      round[i].t_sec += t0;
      script.push_back(round[i]);
    }
  }
  return script;
}

/// The real simulation: one persistent AliceStream and SessionFrameSource
/// for the whole call (network/codec state survives every event), with the
/// legitimate peer and the reenactor built up front when the script ever
/// needs them, so a takeover swaps models without touching transport state —
/// exactly how a virtual-camera hijack looks from the far side.
///
/// Seed layout (seed = derive_seed(master, ordinal)): streams 61/62 drive
/// Alice (script/stream), 63 the legitimate peer, 65 the reenactor, 69/68
/// their respective environment perturbations (decorrelated, unlike the
/// load generator's shared stream, because both peers can coexist here),
/// 71 camera drift, 72 the transport session.
class FullScenarioSource final : public ScenarioChatSource {
 public:
  FullScenarioSource(const ScenarioSpec& spec, const CallerScript& script,
                     std::size_t ordinal) {
    const std::uint64_t seed =
        common::derive_seed(spec.master_seed, ordinal);

    // Camera-level families (exposure/white-balance drift) bind to the
    // capture pipelines at construction, from the script's *initial*
    // faults; timeline ramps re-plan only transport/codec/resolution.
    const faults::FaultPlan drift_plan(script.initial_faults,
                                       common::derive_seed(seed, 71));

    chat::AliceSpec alice_spec;
    alice_spec.face = face::make_volunteer_face(seed % 10);
    alice_spec.camera.drift = drift_plan.camera_drift(1);
    common::Rng script_rng(common::derive_seed(seed, 61));
    auto metering =
        make_round_script(spec.duration_s, spec.window_s, script_rng);
    alice_ = std::make_unique<chat::AliceStream>(
        alice_spec, std::move(metering), common::derive_seed(seed, 62));

    const face::FaceModel victim =
        face::make_volunteer_face(spec.claimed_volunteer);
    const bool needs_legit = uses(script, Actor::kLegitimate);
    const bool needs_attacker = uses(script, Actor::kReenactor);
    if (needs_legit) {
      common::Rng env_rng(common::derive_seed(seed, 69));
      chat::LegitimateSpec peer_spec;
      peer_spec.face = victim;
      peer_spec.camera.drift = drift_plan.camera_drift(2);
      peer_spec.screen_distance_m *= env_rng.uniform(0.8, 1.35);
      peer_spec.ambient.lux_on_face *= env_rng.uniform(0.55, 1.7);
      legit_ = std::make_unique<chat::LegitimateRespondent>(
          peer_spec, common::derive_seed(seed, 63));
    }
    if (needs_attacker) {
      common::Rng env_rng(common::derive_seed(seed, 68));
      reenact::ReenactorSpec peer_spec;
      peer_spec.victim = victim;
      peer_spec.target_env.screen_distance_m *= env_rng.uniform(0.8, 1.35);
      peer_spec.target_env.ambient.lux_on_face *= env_rng.uniform(0.55, 1.7);
      attacker_ = std::make_unique<reenact::ReenactmentAttacker>(
          peer_spec, common::derive_seed(seed, 65));
    }

    chat::SessionSpec session_spec;
    session_spec.duration_s = spec.duration_s;
    session_spec.sample_rate_hz = spec.sample_rate_hz;
    session_spec.warmup_s = spec.warmup_s;
    session_spec.faults = script.initial_faults;
    source_ = std::make_unique<chat::SessionFrameSource>(
        session_spec, *alice_, *respondent(script.initial_actor),
        common::derive_seed(seed, 72));
  }

  chat::FramePair next() override { return source_->next(); }

  void set_actor(Actor actor) override {
    source_->set_respondent(*respondent(actor));
  }

  void apply_faults(const faults::FaultConfig& config,
                    std::uint64_t phase) override {
    source_->apply_faults(config, phase);
  }

 private:
  [[nodiscard]] static bool uses(const CallerScript& script, Actor actor) {
    if (script.initial_actor == actor) return true;
    for (const TimelineEvent& e : script.events) {
      if (e.kind == TimelineEvent::Kind::kSwapActor && e.actor == actor) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] chat::RespondentModel* respondent(Actor actor) {
    return actor == Actor::kReenactor
               ? static_cast<chat::RespondentModel*>(attacker_.get())
               : static_cast<chat::RespondentModel*>(legit_.get());
  }

  std::unique_ptr<chat::AliceStream> alice_;
  std::unique_ptr<chat::LegitimateRespondent> legit_;
  std::unique_ptr<reenact::ReenactmentAttacker> attacker_;
  std::unique_ptr<chat::SessionFrameSource> source_;
};

/// Cheap stand-in mirroring the load generator's synthetic source, with the
/// actor swappable mid-stream (the rx signal decorrelates from the swap
/// on). Fault events are no-ops — nothing physical to degrade — so the
/// engine-mechanics tests exercise timelines without rendering anything.
class SyntheticScenarioSource final : public ScenarioChatSource {
 public:
  SyntheticScenarioSource(const ScenarioSpec& spec,
                          const CallerScript& script, std::size_t ordinal)
      : rate_hz_(spec.sample_rate_hz),
        attacker_(script.initial_actor == Actor::kReenactor),
        rng_(common::derive_seed(
            common::derive_seed(spec.master_seed, ordinal), 91)) {
    phase_ = rng_.uniform(0.0, 6.28);
  }

  chat::FramePair next() override {
    const double t = static_cast<double>(tick_++) / rate_hz_;
    const double square = std::sin(0.8 * t + phase_) > 0.0 ? 1.0 : -1.0;
    const double tx = 120.0 + 55.0 * square + rng_.gaussian(0.0, 2.0);
    const double rx =
        attacker_ ? 110.0 + 45.0 * std::sin(1.7 * t + 1.0) +
                        rng_.gaussian(0.0, 2.0)
                  : 0.5 * tx + 30.0 + rng_.gaussian(0.0, 1.0);
    return chat::FramePair{t, flat_frame(tx), flat_frame(rx)};
  }

  void set_actor(Actor actor) override {
    attacker_ = actor == Actor::kReenactor;
  }

  void apply_faults(const faults::FaultConfig&, std::uint64_t) override {}

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

std::unique_ptr<ScenarioChatSource> make_source(const ScenarioSpec& spec,
                                                const CallerScript& script,
                                                std::size_t ordinal) {
  if (spec.full_chat) {
    return std::make_unique<FullScenarioSource>(spec, script, ordinal);
  }
  return std::make_unique<SyntheticScenarioSource>(spec, script, ordinal);
}

/// Live state of one caller while the campaign runs.
struct Caller {
  const CallerScript* script = nullptr;
  std::unique_ptr<ScenarioChatSource> source;
  std::optional<service::SessionId> id;
  std::size_t event_idx = 0;
  std::uint64_t fault_phase = 0;
  Actor actor = Actor::kLegitimate;
  double rejoin_at_s = 0.0;       ///< meaningful while waiting_rejoin
  bool waiting_rejoin = false;
  std::size_t verdicts_seen = 0;  ///< in the current session
  CallerOutcome out;
};

void evict_into(service::SessionManager& manager, Caller& caller) {
  if (!caller.id.has_value()) return;
  if (const auto closed = manager.evict(*caller.id)) {
    caller.out.pending_samples_dropped += closed->pending_samples_dropped;
  }
  caller.id.reset();
  caller.verdicts_seen = 0;
}

}  // namespace

std::size_t ScenarioReport::attacker_windows() const {
  std::size_t n = 0;
  for (const CallerOutcome& c : callers) {
    for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
      if (c.truth_attacker[w] && c.verdicts[w] != core::Verdict::kAbstain) {
        ++n;
      }
    }
  }
  return n;
}

std::size_t ScenarioReport::legit_windows() const {
  std::size_t n = 0;
  for (const CallerOutcome& c : callers) {
    for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
      if (!c.truth_attacker[w] && c.verdicts[w] != core::Verdict::kAbstain) {
        ++n;
      }
    }
  }
  return n;
}

std::size_t ScenarioReport::abstained_windows() const {
  std::size_t n = 0;
  for (const CallerOutcome& c : callers) {
    n += static_cast<std::size_t>(
        std::count(c.verdicts.begin(), c.verdicts.end(),
                   core::Verdict::kAbstain));
  }
  return n;
}

double ScenarioReport::true_accept_rate() const {
  std::size_t total = 0;
  std::size_t hit = 0;
  for (const CallerOutcome& c : callers) {
    for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
      if (!c.truth_attacker[w] ||
          c.verdicts[w] == core::Verdict::kAbstain) {
        continue;
      }
      ++total;
      if (c.verdicts[w] == core::Verdict::kAttacker) ++hit;
    }
  }
  return total > 0 ? static_cast<double>(hit) / static_cast<double>(total)
                   : 0.0;
}

double ScenarioReport::true_reject_rate() const {
  std::size_t total = 0;
  std::size_t hit = 0;
  for (const CallerOutcome& c : callers) {
    for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
      if (c.truth_attacker[w] ||
          c.verdicts[w] == core::Verdict::kAbstain) {
        continue;
      }
      ++total;
      if (c.verdicts[w] == core::Verdict::kLegitimate) ++hit;
    }
  }
  return total > 0 ? static_cast<double>(hit) / static_cast<double>(total)
                   : 0.0;
}

std::string ScenarioReport::verdict_fingerprint() const {
  std::string out;
  for (std::size_t c = 0; c < callers.size(); ++c) {
    if (c != 0) out += '|';
    for (const core::Verdict v : callers[c].verdicts) {
      switch (v) {
        case core::Verdict::kLegitimate:
          out += 'L';
          break;
        case core::Verdict::kAttacker:
          out += 'A';
          break;
        case core::Verdict::kAbstain:
          out += '~';
          break;
      }
    }
  }
  return out;
}

ScenarioReport run_scenario(const ScenarioSpec& spec,
                            const service::ServiceConfig& service_config,
                            const core::StreamingConfig& streaming,
                            std::shared_ptr<model::ModelRegistry> models,
                            obs::ExplanationSink* sink,
                            common::ThreadPool* pool,
                            obs::MetricsRegistry* registry) {
  ScenarioReport report;
  report.name = spec.name;
  report.error = validate(spec);
  if (!report.error.empty()) return report;

  const obs::ObsSpan scenario_span("scenario.run", "scenario");

  service::SessionManager manager(service_config, streaming,
                                  std::move(models), sink);
  service::FrameScheduler scheduler(pool, registry);
  manager.attach_scheduler(&scheduler);

  // Flatten scripts into callers; admit serially in ordinal order so every
  // run assigns the same session ids.
  std::vector<Caller> callers;
  callers.reserve(spec.total_callers());
  for (const CallerScript& script : spec.callers) {
    for (std::size_t k = 0; k < script.count; ++k) {
      Caller caller;
      caller.script = &script;
      caller.actor = script.initial_actor;
      caller.out.ordinal = callers.size();
      caller.out.initial_actor = script.initial_actor;
      const std::optional<service::SessionId> id = manager.create();
      if (id.has_value()) {
        caller.id = id;
        caller.out.session_ids.push_back(*id);
      } else {
        ++report.admission_rejections;
      }
      callers.push_back(std::move(caller));
    }
  }

  {
    const obs::ObsSpan span("scenario.build_chats", "scenario");
    common::for_each_index(pool, callers.size(), [&](std::size_t c) {
      if (!callers[c].id.has_value()) return;  // rejected at admission
      callers[c].source =
          make_source(spec, *callers[c].script, callers[c].out.ordinal);
    });
  }

  const auto total_ticks = static_cast<std::size_t>(
      std::llround(spec.duration_s * spec.sample_rate_hz));
  const std::size_t stride = std::max<std::size_t>(1, spec.ticks_per_pump);

  std::atomic<std::size_t> fed{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total_ticks; done += stride) {
    const std::size_t ticks = std::min(stride, total_ticks - done);
    const double t_now = static_cast<double>(done) / spec.sample_rate_hz;

    // Control step (serial, ordinal order; all queues are drained, so
    // evictions and admissions here are deterministic).
    for (Caller& caller : callers) {
      if (caller.source == nullptr) continue;
      if (caller.waiting_rejoin && t_now >= caller.rejoin_at_s) {
        if (const std::optional<service::SessionId> id = manager.create()) {
          caller.id = id;
          caller.out.session_ids.push_back(*id);
          caller.waiting_rejoin = false;
        } else {
          ++caller.out.rejoin_deferrals;  // capacity full; retry next stride
        }
      }
      const std::vector<TimelineEvent>& events = caller.script->events;
      while (caller.event_idx < events.size() &&
             events[caller.event_idx].at_s <= t_now) {
        const TimelineEvent& e = events[caller.event_idx++];
        switch (e.kind) {
          case TimelineEvent::Kind::kSetFaults:
            caller.source->apply_faults(e.faults, ++caller.fault_phase);
            break;
          case TimelineEvent::Kind::kSwapActor:
            caller.source->set_actor(e.actor);
            caller.actor = e.actor;
            if (e.actor == Actor::kReenactor &&
                caller.out.takeover_at_s < 0.0) {
              caller.out.takeover_at_s = t_now;
            }
            break;
          case TimelineEvent::Kind::kReconnect:
            evict_into(manager, caller);
            caller.waiting_rejoin = true;
            caller.rejoin_at_s = t_now + e.blackout_s;
            ++caller.out.reconnects;
            break;
        }
      }
    }

    // Generation: every caller's chat advances `ticks` frames; frames reach
    // the service only while the caller holds a session (a reconnecting
    // device keeps filming — its link is what is down).
    common::for_each_index(pool, callers.size(), [&](std::size_t c) {
      Caller& caller = callers[c];
      if (caller.source == nullptr) return;
      for (std::size_t k = 0; k < ticks; ++k) {
        chat::FramePair pair = caller.source->next();
        if (caller.id.has_value() &&
            manager.feed(*caller.id, pair.t_sec,
                         std::move(pair.transmitted),
                         std::move(pair.received))) {
          fed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    scheduler.pump();

    // Record windows completed this stride, stamped with the stride's end
    // time and the actor answering right now (the truth label).
    const double t_end =
        static_cast<double>(done + ticks) / spec.sample_rate_hz;
    for (Caller& caller : callers) {
      if (!caller.id.has_value()) continue;
      const std::vector<service::WindowVerdict> windows =
          manager.verdicts(*caller.id);
      for (std::size_t w = caller.verdicts_seen; w < windows.size(); ++w) {
        caller.out.verdicts.push_back(windows[w].verdict);
        caller.out.lof_scores.push_back(windows[w].lof_score);
        caller.out.window_end_s.push_back(t_end);
        caller.out.truth_attacker.push_back(caller.actor ==
                                            Actor::kReenactor);
      }
      caller.verdicts_seen = windows.size();
    }
  }
  report.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  report.frames_fed = fed.load(std::memory_order_relaxed);
  const double vote_fraction = streaming.detector.vote_fraction;
  report.callers.reserve(callers.size());
  for (Caller& caller : callers) {
    evict_into(manager, caller);
    caller.out.final_actor = caller.actor;
    caller.out.final_verdict =
        core::majority_vote(caller.out.verdicts, vote_fraction);
    report.callers.push_back(std::move(caller.out));
  }
  return report;
}

}  // namespace lumichat::scenario
