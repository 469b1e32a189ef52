#include "scenario/timeline.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace lumichat::scenario {
namespace {

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, value);
  out += buf;
}

void append_faults(std::string& out, const faults::FaultConfig& f) {
  out += '{';
  append_kv(out, "burst_loss", f.burst_loss);
  out += ',';
  append_kv(out, "duplication", f.duplication);
  out += ',';
  append_kv(out, "reordering", f.reordering);
  out += ',';
  append_kv(out, "clock_skew", f.clock_skew);
  out += ',';
  append_kv(out, "exposure_drift", f.exposure_drift);
  out += ',';
  append_kv(out, "white_balance_drift", f.white_balance_drift);
  out += ',';
  append_kv(out, "codec_collapse", f.codec_collapse);
  out += ',';
  append_kv(out, "resolution_switch", f.resolution_switch);
  out += '}';
}

[[nodiscard]] const char* kind_name(TimelineEvent::Kind kind) {
  switch (kind) {
    case TimelineEvent::Kind::kSetFaults:
      return "set_faults";
    case TimelineEvent::Kind::kSwapActor:
      return "swap_actor";
    case TimelineEvent::Kind::kReconnect:
      return "reconnect";
  }
  return "?";
}

[[nodiscard]] bool severity_in_range(double s) { return s >= 0.0 && s <= 1.0; }

[[nodiscard]] bool faults_in_range(const faults::FaultConfig& f) {
  return severity_in_range(f.burst_loss) && severity_in_range(f.duplication) &&
         severity_in_range(f.reordering) && severity_in_range(f.clock_skew) &&
         severity_in_range(f.exposure_drift) &&
         severity_in_range(f.white_balance_drift) &&
         severity_in_range(f.codec_collapse) &&
         severity_in_range(f.resolution_switch);
}

}  // namespace

const char* actor_name(Actor actor) {
  return actor == Actor::kReenactor ? "reenactor" : "legitimate";
}

TimelineEvent set_faults(double at_s, const faults::FaultConfig& faults) {
  TimelineEvent e;
  e.at_s = at_s;
  e.kind = TimelineEvent::Kind::kSetFaults;
  e.faults = faults;
  return e;
}

TimelineEvent swap_actor(double at_s, Actor actor) {
  TimelineEvent e;
  e.at_s = at_s;
  e.kind = TimelineEvent::Kind::kSwapActor;
  e.actor = actor;
  return e;
}

TimelineEvent reconnect(double at_s, double blackout_s) {
  TimelineEvent e;
  e.at_s = at_s;
  e.kind = TimelineEvent::Kind::kReconnect;
  e.blackout_s = blackout_s;
  return e;
}

std::size_t ScenarioSpec::total_callers() const {
  std::size_t n = 0;
  for (const CallerScript& script : callers) n += script.count;
  return n;
}

std::string ScenarioSpec::to_json() const {
  std::string out;
  out.reserve(512);
  out += "{\"name\":\"";
  out += name;  // scenario names are identifiers; no escaping needed
  out += "\",";
  append_kv(out, "duration_s", duration_s);
  out += ',';
  append_kv(out, "sample_rate_hz", sample_rate_hz);
  out += ',';
  append_kv(out, "warmup_s", warmup_s);
  out += ',';
  append_kv(out, "window_s", window_s);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"ticks_per_pump\":%zu,\"full_chat\":%s,"
                "\"master_seed\":%" PRIu64
                ",\"claimed_volunteer\":%zu,\"callers\":[",
                ticks_per_pump, full_chat ? "true" : "false", master_seed,
                claimed_volunteer);
  out += buf;
  for (std::size_t c = 0; c < callers.size(); ++c) {
    const CallerScript& script = callers[c];
    if (c != 0) out += ',';
    std::snprintf(buf, sizeof(buf), "{\"count\":%zu,\"initial_actor\":\"%s\"",
                  script.count, actor_name(script.initial_actor));
    out += buf;
    out += ",\"initial_faults\":";
    append_faults(out, script.initial_faults);
    out += ",\"events\":[";
    for (std::size_t i = 0; i < script.events.size(); ++i) {
      const TimelineEvent& e = script.events[i];
      if (i != 0) out += ',';
      out += "{";
      append_kv(out, "at_s", e.at_s);
      std::snprintf(buf, sizeof(buf), ",\"kind\":\"%s\"", kind_name(e.kind));
      out += buf;
      switch (e.kind) {
        case TimelineEvent::Kind::kSetFaults:
          out += ",\"faults\":";
          append_faults(out, e.faults);
          break;
        case TimelineEvent::Kind::kSwapActor:
          std::snprintf(buf, sizeof(buf), ",\"actor\":\"%s\"",
                        actor_name(e.actor));
          out += buf;
          break;
        case TimelineEvent::Kind::kReconnect:
          out += ',';
          append_kv(out, "blackout_s", e.blackout_s);
          break;
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) return "scenario name is empty";
  if (!std::isfinite(spec.duration_s) || spec.duration_s <= 0.0) {
    return "duration_s must be finite and positive";
  }
  if (!std::isfinite(spec.sample_rate_hz) || spec.sample_rate_hz <= 0.0) {
    return "sample_rate_hz must be finite and positive";
  }
  if (!std::isfinite(spec.warmup_s) || spec.warmup_s < 0.0) {
    return "warmup_s must be finite and non-negative";
  }
  if (!(spec.window_s > 0.0)) return "window_s must be positive";
  if (spec.ticks_per_pump == 0) return "ticks_per_pump must be >= 1";
  if (spec.claimed_volunteer >= 10) {
    return "claimed_volunteer outside the 10-volunteer population";
  }
  if (spec.callers.empty()) return "no caller scripts";
  for (const CallerScript& script : spec.callers) {
    if (script.count == 0) return "caller script with count 0";
    if (!faults_in_range(script.initial_faults)) {
      return "initial fault severity outside [0, 1]";
    }
    double prev = 0.0;
    for (const TimelineEvent& e : script.events) {
      if (e.at_s < prev) return "events not sorted by at_s";
      prev = e.at_s;
      if (e.at_s < 0.0 || e.at_s >= spec.duration_s) {
        return "event at_s outside [0, duration_s)";
      }
      switch (e.kind) {
        case TimelineEvent::Kind::kSetFaults:
          if (!faults_in_range(e.faults)) {
            return "event fault severity outside [0, 1]";
          }
          break;
        case TimelineEvent::Kind::kSwapActor:
          break;
        case TimelineEvent::Kind::kReconnect:
          if (e.blackout_s < 0.0) return "reconnect blackout_s negative";
          break;
      }
    }
  }
  return "";
}

}  // namespace lumichat::scenario
