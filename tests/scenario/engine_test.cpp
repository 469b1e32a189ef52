// Engine mechanics on the cheap synthetic source (full_chat = false): event
// application, reconnect accounting, truth labelling and thread-count
// determinism — no faces, no optics, so these run in milliseconds.
#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "../service/service_test_util.hpp"
#include "common/thread_pool.hpp"
#include "obs/explain.hpp"
#include "scenario/timeline.hpp"

namespace lumichat::scenario {
namespace {

/// 8 s synthetic campaign: 2 s windows at 10 Hz -> 4 verdicts per caller.
ScenarioSpec synthetic_spec() {
  ScenarioSpec spec;
  spec.name = "synthetic";
  spec.full_chat = false;
  spec.duration_s = 8.0;
  spec.window_s = 2.0;
  spec.warmup_s = 0.0;
  spec.master_seed = 77;
  spec.callers = {CallerScript{}};
  return spec;
}

ScenarioReport run(const ScenarioSpec& spec, common::ThreadPool* pool,
                   std::size_t max_sessions = 64) {
  service::ServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.max_sessions = max_sessions;
  return run_scenario(spec, cfg, service::testutil::test_streaming_config(),
                      service::testutil::trained_registry(), nullptr, pool);
}

TEST(ScenarioEngine, InvalidSpecReportsErrorAndRunsNothing) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers.clear();
  const ScenarioReport report = run(spec, nullptr);
  EXPECT_FALSE(report.error.empty());
  EXPECT_TRUE(report.callers.empty());
  EXPECT_EQ(report.frames_fed, 0u);
}

TEST(ScenarioEngine, CompletesOneWindowPerWindowLengthPerCaller) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].count = 3;
  const ScenarioReport report = run(spec, nullptr);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_EQ(report.callers.size(), 3u);
  for (const CallerOutcome& c : report.callers) {
    EXPECT_EQ(c.verdicts.size(), 4u);  // 8 s of 2 s windows
    EXPECT_EQ(c.session_ids.size(), 1u);
    EXPECT_EQ(c.reconnects, 0u);
    ASSERT_EQ(c.window_end_s.size(), 4u);
    for (std::size_t w = 1; w < c.window_end_s.size(); ++w) {
      EXPECT_GT(c.window_end_s[w], c.window_end_s[w - 1]);
    }
    EXPECT_EQ(c.final_verdict.total_votes, 4u);
  }
  // 3 callers x 80 ticks, every frame fed while holding a session.
  EXPECT_EQ(report.frames_fed, 240u);
}

TEST(ScenarioEngine, SwapActorStampsTakeoverTimeAndTruthLabels) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].events = {swap_actor(3.0, Actor::kReenactor)};
  const ScenarioReport report = run(spec, nullptr);
  ASSERT_TRUE(report.error.empty()) << report.error;
  const CallerOutcome& c = report.callers[0];
  EXPECT_DOUBLE_EQ(c.takeover_at_s, 3.0);  // 3.0 lies on the 0.2 s pump grid
  EXPECT_EQ(c.initial_actor, Actor::kLegitimate);
  EXPECT_EQ(c.final_actor, Actor::kReenactor);
  // Window 0 completed before the swap; every later window is attacker-truth.
  ASSERT_EQ(c.truth_attacker.size(), 4u);
  EXPECT_FALSE(c.truth_attacker[0]);
  EXPECT_TRUE(c.truth_attacker[1]);
  EXPECT_TRUE(c.truth_attacker[2]);
  EXPECT_TRUE(c.truth_attacker[3]);
}

TEST(ScenarioEngine, ReconnectEvictsAndRejoinsWithEvidenceAccounting) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].events = {reconnect(3.0, 0.6)};
  const ScenarioReport report = run(spec, nullptr);
  ASSERT_TRUE(report.error.empty()) << report.error;
  const CallerOutcome& c = report.callers[0];
  EXPECT_EQ(c.reconnects, 1u);
  EXPECT_EQ(c.session_ids.size(), 2u);
  EXPECT_NE(c.session_ids[0], c.session_ids[1]);
  // Session 1: 30 samples = 1 window + 10 pending dropped at eviction.
  // Session 2 (rejoin at 3.6): 44 samples = 2 windows + 4 pending dropped
  // at the end-of-campaign teardown.
  EXPECT_EQ(c.verdicts.size(), 3u);
  EXPECT_EQ(c.pending_samples_dropped, 14u);
  EXPECT_EQ(c.rejoin_deferrals, 0u);
}

TEST(ScenarioEngine, AdmissionControlRejectsCallersPastCapacity) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].count = 3;
  const ScenarioReport report = run(spec, nullptr, /*max_sessions=*/2);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.admission_rejections, 1u);
  ASSERT_EQ(report.callers.size(), 3u);
  // The rejected caller exists in the report but never ran.
  EXPECT_TRUE(report.callers[2].session_ids.empty());
  EXPECT_TRUE(report.callers[2].verdicts.empty());
  // The admitted callers were unaffected.
  EXPECT_EQ(report.callers[0].verdicts.size(), 4u);
  EXPECT_EQ(report.callers[1].verdicts.size(), 4u);
}

TEST(ScenarioEngine, VerdictsAreBitIdenticalAcrossThreadCounts) {
  // The whole campaign must be a pure function of the spec: serial
  // execution and a 4-thread pool produce the same fingerprint, the same
  // LOF bits, the same session ids and the same eviction accounting.
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].count = 4;
  spec.callers[0].events = {reconnect(2.6, 0.4),
                            swap_actor(5.0, Actor::kReenactor)};
  CallerScript attacker;
  attacker.initial_actor = Actor::kReenactor;
  attacker.count = 2;
  spec.callers.push_back(attacker);

  const ScenarioReport serial = run(spec, nullptr);
  common::ThreadPool wide(4);
  const ScenarioReport threaded = run(spec, &wide);
  ASSERT_TRUE(serial.error.empty()) << serial.error;

  EXPECT_EQ(serial.verdict_fingerprint(), threaded.verdict_fingerprint());
  ASSERT_EQ(serial.callers.size(), threaded.callers.size());
  for (std::size_t c = 0; c < serial.callers.size(); ++c) {
    EXPECT_EQ(serial.callers[c].lof_scores, threaded.callers[c].lof_scores);
    EXPECT_EQ(serial.callers[c].session_ids,
              threaded.callers[c].session_ids);
    EXPECT_EQ(serial.callers[c].pending_samples_dropped,
              threaded.callers[c].pending_samples_dropped);
    EXPECT_EQ(serial.callers[c].window_end_s,
              threaded.callers[c].window_end_s);
  }
  EXPECT_EQ(serial.frames_fed, threaded.frames_fed);
}

TEST(ScenarioEngine, FingerprintEncodesVerdictsPerCaller) {
  ScenarioReport report;
  CallerOutcome a;
  a.verdicts = {core::Verdict::kLegitimate, core::Verdict::kAttacker};
  CallerOutcome b;
  b.verdicts = {core::Verdict::kAbstain};
  report.callers = {a, b};
  EXPECT_EQ(report.verdict_fingerprint(), "LA|~");
}

// The acceptance gate for the model service: hot-swapping the registry's
// current version while a campaign runs (reconnecting callers re-attach
// mid-run) stalls nothing and drops nothing. The publisher republishes the
// same training set, so the reference run without swaps must match
// bit-for-bit — versions change, behaviour does not.
TEST(ScenarioEngine, HotSwapDuringCampaignDropsNoSessions) {
  ScenarioSpec spec = synthetic_spec();
  spec.callers[0].count = 4;
  spec.callers[0].events = {reconnect(3.0, 0.5)};

  service::ServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.max_sessions = 64;
  const core::StreamingConfig streaming =
      service::testutil::test_streaming_config(2.0);

  const auto reference_models = service::testutil::trained_registry();
  const ScenarioReport reference = run_scenario(
      spec, cfg, streaming, reference_models, nullptr, nullptr);
  ASSERT_TRUE(reference.error.empty()) << reference.error;

  // Republishes on every completed window — guaranteed mid-campaign swaps
  // no matter how the host schedules threads — while a free-running
  // publisher thread adds genuinely concurrent swaps on top.
  struct PublishingSink final : obs::ExplanationSink {
    std::shared_ptr<model::ModelRegistry> models;
    void emit(const obs::RoundExplanation&) override {
      const core::DetectorConfig detector;
      models->publish(service::testutil::legit_like(20, 7),
                      detector.lof_neighbors, detector.lof_threshold);
    }
  };
  PublishingSink each_window;
  each_window.models = service::testutil::trained_registry();
  const auto& swapped_models = each_window.models;
  std::atomic<bool> stop{false};
  std::thread publisher([&swapped_models, &stop] {
    const core::DetectorConfig detector;
    while (!stop.load(std::memory_order_relaxed)) {
      swapped_models->publish(service::testutil::legit_like(20, 7),
                              detector.lof_neighbors,
                              detector.lof_threshold);
    }
  });
  const ScenarioReport swapped = run_scenario(
      spec, cfg, streaming, swapped_models, &each_window, nullptr);
  stop.store(true, std::memory_order_relaxed);
  publisher.join();

  ASSERT_TRUE(swapped.error.empty()) << swapped.error;
  EXPECT_GT(swapped_models->publish_count(), 1u);
  EXPECT_EQ(swapped.verdict_fingerprint(), reference.verdict_fingerprint());
  EXPECT_EQ(swapped.frames_fed, reference.frames_fed);
  ASSERT_EQ(swapped.callers.size(), reference.callers.size());
  for (std::size_t c = 0; c < swapped.callers.size(); ++c) {
    EXPECT_EQ(swapped.callers[c].lof_scores,
              reference.callers[c].lof_scores);
    EXPECT_EQ(swapped.callers[c].reconnects,
              reference.callers[c].reconnects);
    EXPECT_EQ(swapped.callers[c].rejoin_deferrals, 0u);
  }
}

}  // namespace
}  // namespace lumichat::scenario
