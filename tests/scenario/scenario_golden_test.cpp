// Golden regression for a full-chat scenario campaign: a fixed spec must
// keep producing exactly these per-window verdicts and LOF scores, the
// scores in hex-float form so the comparison is bit for bit. The campaign
// is small (two callers, two 6 s windows each) but walks every path the
// engine takes through the chat simulator: camera drift bound from the
// initial faults, a mid-call fault ramp and its clearing, a takeover by the
// reenactor and a restore of the legitimate peer.
//
// The test runs in the integration tier of both the default and the
// LUMICHAT_SIMD=scalar CI jobs. If a change legitimately alters the
// simulation or the verdicts, re-pin using the strings this test prints.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "scenario/engine.hpp"
#include "scenario_test_util.hpp"

namespace lumichat::scenario {
namespace {

constexpr double kWindowS = 6.0;

ScenarioSpec golden_spec() {
  ScenarioSpec spec;
  spec.name = "golden";
  spec.duration_s = 2.0 * kWindowS;
  spec.window_s = kWindowS;
  spec.master_seed = 20200707;

  faults::FaultConfig hunting;
  hunting.exposure_drift = 0.4;
  hunting.white_balance_drift = 0.3;
  faults::FaultConfig storm = hunting;
  storm.burst_loss = 0.5;
  storm.codec_collapse = 0.5;
  storm.resolution_switch = 0.5;

  CallerScript victim;  // drifting webcam, a storm, then a takeover
  victim.initial_faults = hunting;
  victim.events = {set_faults(2.0, storm), set_faults(4.0, hunting),
                   swap_actor(kWindowS, Actor::kReenactor)};

  CallerScript restored;  // starts hijacked, the real user comes back
  restored.initial_actor = Actor::kReenactor;
  restored.events = {set_faults(1.6, faults::FaultConfig::uniform(0.3)),
                     swap_actor(kWindowS, Actor::kLegitimate),
                     set_faults(8.0, faults::FaultConfig{})};

  spec.callers = {victim, restored};
  return spec;
}

std::string describe(const CallerOutcome& c) {
  std::string out;
  for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%d:%a", w == 0 ? "" : " ",
                  static_cast<int>(c.verdicts[w]), c.lof_scores[w]);
    out += buf;
  }
  return out;
}

// Pinned before the dataset, the load generator and the scenario engine
// were rebuilt on one simulated-call recipe.
const char* const kGolden[] = {
    "0:0x1.06059e9bb773cp+0 0:0x1.85d8947737f1ep+0",
    "1:0x1.08b5176531d8ap+8 1:0x1.4760ca4549afdp+2",
};

TEST(ScenarioGolden, FullChatCampaignVerdictsAreFrozen) {
  // Abstain off: every window is decided, so every LOF score is pinned.
  core::StreamingConfig streaming =
      testutil::campaign_streaming_config(kWindowS);
  streaming.detector.enable_abstain = false;
  const ScenarioReport report = run_scenario(
      golden_spec(), testutil::campaign_service_config(), streaming,
      testutil::campaign_registry(kWindowS), nullptr, nullptr);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_EQ(report.callers.size(), 2u);
  for (std::size_t c = 0; c < report.callers.size(); ++c) {
    const std::string got = describe(report.callers[c]);
    std::printf("[%zu] \"%s\"\n", c, got.c_str());
    EXPECT_EQ(report.callers[c].verdicts.size(), 2u) << "caller " << c;
    EXPECT_EQ(got, kGolden[c]) << "caller " << c;
  }
}

}  // namespace
}  // namespace lumichat::scenario
