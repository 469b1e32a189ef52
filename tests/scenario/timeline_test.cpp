#include "scenario/timeline.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "obs/json.hpp"
#include "scenario/library.hpp"

namespace lumichat::scenario {
namespace {

ScenarioSpec minimal_spec() {
  ScenarioSpec spec;
  spec.name = "minimal";
  spec.duration_s = 10.0;
  spec.callers = {CallerScript{}};
  return spec;
}

TEST(Timeline, EventConstructorsFillTheMatchingFields) {
  faults::FaultConfig cfg;
  cfg.burst_loss = 0.5;
  const TimelineEvent ramp = set_faults(3.0, cfg);
  EXPECT_DOUBLE_EQ(ramp.at_s, 3.0);
  EXPECT_EQ(ramp.kind, TimelineEvent::Kind::kSetFaults);
  EXPECT_DOUBLE_EQ(ramp.faults.burst_loss, 0.5);

  const TimelineEvent swap = swap_actor(7.5, Actor::kReenactor);
  EXPECT_DOUBLE_EQ(swap.at_s, 7.5);
  EXPECT_EQ(swap.kind, TimelineEvent::Kind::kSwapActor);
  EXPECT_EQ(swap.actor, Actor::kReenactor);

  const TimelineEvent drop = reconnect(4.0, 1.25);
  EXPECT_EQ(drop.kind, TimelineEvent::Kind::kReconnect);
  EXPECT_DOUBLE_EQ(drop.blackout_s, 1.25);
}

TEST(Timeline, TotalCallersSumsGroupCounts) {
  ScenarioSpec spec = minimal_spec();
  spec.callers[0].count = 3;
  CallerScript more;
  more.count = 2;
  spec.callers.push_back(more);
  EXPECT_EQ(spec.total_callers(), 5u);
}

TEST(Timeline, ValidateAcceptsEveryLibraryCampaign) {
  for (const ScenarioSpec& spec : standard_campaigns()) {
    EXPECT_EQ(validate(spec), "") << spec.name;
  }
}

TEST(Timeline, ValidateRejectsStructuralProblems) {
  {
    ScenarioSpec spec = minimal_spec();
    spec.name.clear();
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.duration_s = 0.0;
    EXPECT_NE(validate(spec), "");
  }
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioSpec spec = minimal_spec();
    spec.duration_s = bad;
    EXPECT_NE(validate(spec), "") << "duration_s " << bad;
    spec = minimal_spec();
    spec.warmup_s = bad;
    EXPECT_NE(validate(spec), "") << "warmup_s " << bad;
    spec = minimal_spec();
    spec.sample_rate_hz = bad;
    EXPECT_NE(validate(spec), "") << "sample_rate_hz " << bad;
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.ticks_per_pump = 0;
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.claimed_volunteer = 10;  // population holds volunteers 0..9
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.callers.clear();
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.callers[0].count = 0;
    EXPECT_NE(validate(spec), "");
  }
}

TEST(Timeline, ValidateRejectsBadEvents) {
  {
    // Unsorted events.
    ScenarioSpec spec = minimal_spec();
    spec.callers[0].events = {reconnect(5.0), reconnect(2.0)};
    EXPECT_NE(validate(spec), "");
  }
  {
    // Event at/after the end of the call can never fire.
    ScenarioSpec spec = minimal_spec();
    spec.callers[0].events = {reconnect(spec.duration_s)};
    EXPECT_NE(validate(spec), "");
  }
  {
    // Severity outside [0, 1].
    ScenarioSpec spec = minimal_spec();
    faults::FaultConfig cfg;
    cfg.burst_loss = 1.5;
    spec.callers[0].events = {set_faults(1.0, cfg)};
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.callers[0].initial_faults.exposure_drift = -0.1;
    EXPECT_NE(validate(spec), "");
  }
  {
    ScenarioSpec spec = minimal_spec();
    spec.callers[0].events = {reconnect(1.0, -0.5)};
    EXPECT_NE(validate(spec), "");
  }
}

TEST(Timeline, ToJsonIsWellFormedForEveryLibraryCampaign) {
  for (const ScenarioSpec& spec : standard_campaigns()) {
    EXPECT_TRUE(obs::json_well_formed(spec.to_json())) << spec.name;
  }
}

TEST(Timeline, ToJsonCarriesTheWholeTimeline) {
  const ScenarioSpec spec = midcall_takeover();
  const std::optional<obs::JsonValue> parsed = obs::json_parse(spec.to_json());
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->find("name")->as_string(""), "midcall_takeover");
  EXPECT_DOUBLE_EQ(parsed->find("duration_s")->as_number(), spec.duration_s);
  EXPECT_DOUBLE_EQ(parsed->find("window_s")->as_number(), spec.window_s);
  EXPECT_TRUE(parsed->find("full_chat")->as_bool(false));
  EXPECT_DOUBLE_EQ(parsed->find("claimed_volunteer")->as_number(),
                   static_cast<double>(spec.claimed_volunteer));

  const obs::JsonValue* callers = parsed->find("callers");
  ASSERT_NE(callers, nullptr);
  ASSERT_TRUE(callers->is_array());
  ASSERT_EQ(callers->items.size(), spec.callers.size());

  // The victim group: count, initial actor, and its one swap event.
  const obs::JsonValue& victim = callers->items[0];
  EXPECT_DOUBLE_EQ(victim.find("count")->as_number(),
                   static_cast<double>(spec.callers[0].count));
  EXPECT_EQ(victim.find("initial_actor")->as_string(""), "legitimate");
  const obs::JsonValue* events = victim.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].find("kind")->as_string(""), "swap_actor");
  EXPECT_EQ(events->items[0].find("actor")->as_string(""), "reenactor");
  EXPECT_DOUBLE_EQ(events->items[0].find("at_s")->as_number(),
                   spec.callers[0].events[0].at_s);
}

TEST(Timeline, ToJsonSerialisesFaultKnobsAndReconnects) {
  const ScenarioSpec outdoor = outdoor_mobile();
  const std::optional<obs::JsonValue> parsed =
      obs::json_parse(outdoor.to_json());
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* faults =
      parsed->find("callers")->items[0].find("initial_faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_DOUBLE_EQ(faults->find("exposure_drift")->as_number(), 0.5);
  EXPECT_DOUBLE_EQ(faults->find("burst_loss")->as_number(), 0.0);

  const ScenarioSpec churn = reconnect_churn();
  const std::optional<obs::JsonValue> churn_json =
      obs::json_parse(churn.to_json());
  ASSERT_TRUE(churn_json.has_value());
  const obs::JsonValue* events =
      churn_json->find("callers")->items[0].find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].find("kind")->as_string(""), "reconnect");
  EXPECT_DOUBLE_EQ(events->items[0].find("blackout_s")->as_number(), 1.0);
}

TEST(Timeline, EqualSpecsSerialiseIdentically) {
  EXPECT_EQ(outdoor_mobile().to_json(), outdoor_mobile().to_json());
  EXPECT_NE(outdoor_mobile().to_json(), flaky_webcam_storm().to_json());
}

}  // namespace
}  // namespace lumichat::scenario
