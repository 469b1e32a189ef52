#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "chat/session.hpp"
#include "common/rng.hpp"
#include "face/face_model.hpp"
#include "reenact/call.hpp"
#include "service/scheduler.hpp"

namespace lumichat::scenario {
namespace {

reenact::PeerRole peer_role(Actor actor) {
  return actor == Actor::kReenactor ? reenact::PeerRole::kAttacker
                                    : reenact::PeerRole::kLegitimate;
}

/// Caller `ordinal`'s call: one persistent Alice and transport for the
/// whole call (network/codec state survives every event), with probe rounds
/// aligned to the detection windows and the swappable-peer seed layout
/// (reenact/call.hpp), since a takeover puts both peers in one call.
std::unique_ptr<reenact::CallSource> make_source(const ScenarioSpec& spec,
                                                 const CallerScript& script,
                                                 std::size_t ordinal) {
  reenact::CallRecipe recipe;
  recipe.session.duration_s = spec.duration_s;
  recipe.session.sample_rate_hz = spec.sample_rate_hz;
  recipe.session.warmup_s = spec.warmup_s;
  recipe.session.faults = script.initial_faults;
  recipe.victim = face::make_volunteer_face(spec.claimed_volunteer);
  recipe.probe_round_s = spec.window_s;
  recipe.streams = reenact::kSwappablePeerStreams;
  return reenact::make_call(recipe,
                            common::derive_seed(spec.master_seed, ordinal),
                            peer_role(script.initial_actor), spec.full_chat);
}

/// Live state of one caller while the campaign runs.
struct Caller {
  const CallerScript* script = nullptr;
  std::unique_ptr<reenact::CallSource> source;
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
                            common::ThreadPool* pool) {
  ScenarioReport report;
  report.name = spec.name;
  report.error = validate(spec);
  if (!report.error.empty()) return report;

  const std::size_t total_ticks =
      chat::tick_count(spec.duration_s, spec.sample_rate_hz);
  service::SessionManager manager(service_config, streaming,
                                  std::move(models), sink);
  service::FrameScheduler scheduler(pool);
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

  common::for_each_index(pool, callers.size(), [&](std::size_t c) {
    if (!callers[c].id.has_value()) return;  // rejected at admission
    callers[c].source =
        make_source(spec, *callers[c].script, callers[c].out.ordinal);
  });

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
            caller.source->set_actor(peer_role(e.actor));
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
