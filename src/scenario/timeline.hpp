// Declarative scenario timelines — scripted degradation campaigns for the
// concurrent verification service.
//
// The fault library (PR 4) measures one severity at a time; the load
// generator (PR 3) holds every knob fixed for a whole run. Real calls do
// neither: a mobile user walks into sunlight while their link sheds frames,
// an attacker takes over an established stream mid-call, a flaky webcam
// storms and recovers, devices drop and rejoin. A ScenarioSpec scripts such
// a campaign as data: groups of callers, each with an initial actor and
// fault state plus a sorted list of timed events —
//
//   set_faults(at_s, config)   severity-ramp step (new FaultPlan phase)
//   swap_actor(at_s, actor)    mid-call takeover / restore
//   reconnect(at_s, blackout)  drop the service session, rejoin after a gap
//
// executed deterministically from one master seed by scenario::run_scenario.
// Events are quantised to scheduler-pump boundaries (every ticks_per_pump
// ticks), when every frame queue is drained — which is what makes an entire
// campaign, evictions included, a pure function of its spec at any thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_config.hpp"

namespace lumichat::scenario {

/// Who is answering on the far side of a call.
enum class Actor : std::uint8_t {
  kLegitimate = 0,  ///< the real user: screen light reflects off their face
  kReenactor = 1,   ///< ICFace-style reenactment attacker (virtual camera)
};

[[nodiscard]] const char* actor_name(Actor actor);

/// One timed change to a caller's world. Fields beyond `at_s`/`kind` are
/// read only by the matching kind.
struct TimelineEvent {
  double at_s = 0.0;
  enum class Kind : std::uint8_t {
    kSetFaults,  ///< swap the caller's degradation severities (ramp step)
    kSwapActor,  ///< replace who answers: takeover / restore
    kReconnect,  ///< evict the service session; rejoin after blackout_s
  } kind = Kind::kSetFaults;
  faults::FaultConfig faults{};      ///< kSetFaults: the new severities
  Actor actor = Actor::kLegitimate;  ///< kSwapActor: the new respondent
  double blackout_s = 0.5;           ///< kReconnect: link-down gap
};

[[nodiscard]] TimelineEvent set_faults(double at_s,
                                       const faults::FaultConfig& faults);
[[nodiscard]] TimelineEvent swap_actor(double at_s, Actor actor);
[[nodiscard]] TimelineEvent reconnect(double at_s, double blackout_s = 0.5);

/// A group of `count` callers sharing one script. Each caller's streams are
/// seeded from (master_seed, global ordinal), so callers within a group are
/// decorrelated; the script's events apply to every caller of the group at
/// the same scripted times.
struct CallerScript {
  std::size_t count = 1;
  Actor initial_actor = Actor::kLegitimate;
  faults::FaultConfig initial_faults{};
  std::vector<TimelineEvent> events;  ///< must be sorted by at_s
};

/// One complete campaign.
struct ScenarioSpec {
  std::string name = "scenario";
  /// Scripted call time per caller (events beyond this never fire).
  double duration_s = 30.0;
  double sample_rate_hz = 10.0;
  /// Unrecorded chat simulated before t = 0 (camera adaptation).
  double warmup_s = 1.0;
  /// Detection-window length every session's StreamingDetector uses; kept
  /// here (not only in the prototype) so the miner can translate round
  /// indices back into campaign time.
  double window_s = 3.0;
  /// Simulation ticks fed per caller between scheduler pumps; also the
  /// quantum events are aligned to.
  std::size_t ticks_per_pump = 2;
  /// Full chat simulation (faces, optics, codec, network) when true; the
  /// cheap synthetic source when false (engine-mechanics unit tests; fault
  /// events are no-ops there since there is nothing physical to degrade).
  bool full_chat = true;
  std::uint64_t master_seed = 42;
  /// Volunteer whose identity every call claims (and whose legit clips the
  /// prototype was trained on — the paper's model is per-user, Sec. VII).
  /// The legitimate respondent IS this volunteer; the reenactor puppets
  /// their face model. Alice's own face varies per caller.
  std::size_t claimed_volunteer = 9;
  std::vector<CallerScript> callers;

  [[nodiscard]] std::size_t total_callers() const;

  /// The timeline as one JSON object (schema documented in DESIGN.md §5f);
  /// doubles use %.17g, so equal specs serialise identically.
  [[nodiscard]] std::string to_json() const;
};

/// Structural validation: non-finite or non-positive durations/rates,
/// unsorted or out-of-range events, severities outside [0, 1], empty caller
/// lists.
/// Returns an empty string when the spec is runnable, else a description of
/// the first problem found.
[[nodiscard]] std::string validate(const ScenarioSpec& spec);

}  // namespace lumichat::scenario
