// Service-level determinism regression (the runtime extension of the
// parallel-engine invariant): one load scenario, executed serially, on a
// 1-thread pool and on an N-thread pool, must yield bit-identical
// per-session verdict sequences — including when backpressure is actively
// dropping frames. Also pinned here: what the load generator ships. Every
// chat make_chat_source builds is 8-bit video, each channel rounded the
// way paperbench's corpus stores its frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "face/face_model.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "service/load_generator.hpp"
#include "service_test_util.hpp"

namespace lumichat::service {
namespace {

LoadSpec small_scenario() {
  LoadSpec spec;
  spec.n_sessions = 40;
  spec.duration_s = 5.0;
  spec.sample_rate_hz = 10.0;
  spec.warmup_s = 0.0;
  spec.attacker_fraction = 0.5;
  spec.ticks_per_pump = 4;
  spec.full_chat = false;  // synthetic frames: runtime paths, cheap ticks
  spec.master_seed = 1234;
  return spec;
}

ServiceConfig small_service() {
  ServiceConfig cfg;
  cfg.n_shards = 8;
  cfg.max_sessions = 64;
  return cfg;
}

void expect_identical(const LoadReport& a, const LoadReport& b,
                      const char* what) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size()) << what;
  EXPECT_EQ(a.frames_fed, b.frames_fed) << what;
  EXPECT_EQ(a.metrics.frames_dropped, b.metrics.frames_dropped) << what;
  EXPECT_EQ(a.metrics.windows_completed, b.metrics.windows_completed) << what;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionResult& x = a.sessions[i];
    const SessionResult& y = b.sessions[i];
    EXPECT_EQ(x.id, y.id) << what << " session " << i;
    EXPECT_EQ(x.truth_attacker, y.truth_attacker) << what << " session " << i;
    EXPECT_EQ(x.window_verdicts, y.window_verdicts)
        << what << " session " << i;
    EXPECT_EQ(x.lof_scores, y.lof_scores) << what << " session " << i;
    EXPECT_EQ(x.final_verdict.is_attacker, y.final_verdict.is_attacker)
        << what << " session " << i;
    EXPECT_EQ(x.pending_samples_dropped, y.pending_samples_dropped)
        << what << " session " << i;
  }
}

TEST(ServiceDeterminism, VerdictsIdenticalAcrossThreadCounts) {
  const LoadSpec spec = small_scenario();
  const core::StreamingConfig streaming = testutil::test_streaming_config();
  const auto models = testutil::trained_registry();

  const LoadReport serial =
      run_load(spec, small_service(), streaming, models);
  ASSERT_EQ(serial.sessions.size(), spec.n_sessions);
  EXPECT_GT(serial.metrics.windows_completed, 0u);

  common::ThreadPool one(1);
  expect_identical(serial,
                   run_load(spec, small_service(), streaming, models,
                            nullptr, &one),
                   "1-thread pool");
  common::ThreadPool four(4);
  expect_identical(serial,
                   run_load(spec, small_service(), streaming, models,
                            nullptr, &four),
                   "4-thread pool");
}

TEST(ServiceDeterminism, HoldsUnderDropOldestBackpressure) {
  // Bursts larger than the queue force drop-oldest decisions; those must be
  // a pure function of the scenario too, not of worker timing.
  LoadSpec spec = small_scenario();
  spec.ticks_per_pump = 12;
  ServiceConfig cfg = small_service();
  cfg.session_queue_capacity = 8;
  const core::StreamingConfig streaming = testutil::test_streaming_config();
  const auto models = testutil::trained_registry();

  const LoadReport serial = run_load(spec, cfg, streaming, models);
  EXPECT_GT(serial.metrics.frames_dropped, 0u);  // backpressure engaged

  common::ThreadPool four(4);
  expect_identical(serial,
                   run_load(spec, cfg, streaming, models, nullptr, &four),
                   "4-thread pool under backpressure");
}

TEST(ServiceDeterminism, RepeatedRunsAreIdentical) {
  const LoadSpec spec = small_scenario();
  const core::StreamingConfig streaming = testutil::test_streaming_config();
  const auto models = testutil::trained_registry();
  common::ThreadPool pool(2);
  const LoadReport first = run_load(spec, small_service(), streaming, models,
                                    nullptr, &pool);
  const LoadReport second = run_load(spec, small_service(), streaming, models,
                                     nullptr, &pool);
  expect_identical(first, second, "repeat on the same pool");
}

TEST(ServiceDeterminism, GroundTruthAssignmentIsAPureFunction) {
  const LoadSpec spec = small_scenario();
  std::size_t attackers = 0;
  for (std::size_t i = 0; i < spec.n_sessions; ++i) {
    const bool a = load_session_is_attacker(spec, i);
    EXPECT_EQ(a, load_session_is_attacker(spec, i));
    if (a) ++attackers;
  }
  // With fraction 0.5 the split should be roughly balanced.
  EXPECT_GT(attackers, spec.n_sessions / 5);
  EXPECT_LT(attackers, spec.n_sessions * 4 / 5);
}

TEST(ServiceLoad, NanDurationThrowsInsteadOfDriving) {
  LoadSpec spec = small_scenario();
  spec.duration_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_load(spec, small_service(),
                              testutil::test_streaming_config(),
                              testutil::trained_registry()),
               std::invalid_argument);
  spec.full_chat = true;  // the full chat refuses to build at all
  spec.n_sessions = 1;
  EXPECT_THROW((void)make_chat_source(spec, 0, false), std::invalid_argument);
}

TEST(ServiceLoad, FullChatRunExplainsEveryWindowAndCountsItsPumps) {
  // The always-on telemetry of one run on the full-chat path: one
  // RoundExplanation per completed window, a registry snapshot that parses,
  // counted scheduler pumps, and every fed frame processed exactly once.
  LoadSpec spec;
  spec.n_sessions = 4;
  spec.duration_s = 2.0;
  spec.warmup_s = 1.0;
  spec.full_chat = true;
  spec.master_seed = 99;
  obs::CollectingExplanationSink sink;
  common::ThreadPool pool(2);
  const LoadReport report =
      run_load(spec, small_service(), testutil::test_streaming_config(),
               testutil::trained_registry(), &sink, &pool);

  std::size_t windows = 0;
  for (const SessionResult& s : report.sessions) windows += s.verdicts.size();
  EXPECT_EQ(windows, spec.n_sessions);  // one 2 s window per 2 s chat
  EXPECT_EQ(sink.size(), windows);
  EXPECT_TRUE(obs::json_well_formed(report.stats.to_json()));
  EXPECT_GT(report.stats.counter("scheduler.pumps"), 0u);
  EXPECT_GT(report.stats.counter("scheduler.drain_tasks"), 0u);
  EXPECT_EQ(report.stats.counter("service.frames_processed"),
            report.frames_fed);
  // The window step has its own stage histogram: one sample per verdict.
  const obs::HistogramSnapshot* window =
      report.stats.histogram("service.stage.window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->count, report.stats.counter("service.windows_completed"));
  EXPECT_EQ(window->count, windows);
}

/// paperbench's corpus rounding of one channel (bench/corpus.cpp).
double corpus_round(double v) {
  return static_cast<double>(
      static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5));
}

/// Checks that every channel of `shipped` is a byte value and equals the
/// corpus rounding of the same channel of `raw`, bit for bit.
void expect_rounded(const image::Image& shipped, const image::Image& raw) {
  ASSERT_EQ(shipped.width(), raw.width());
  ASSERT_EQ(shipped.height(), raw.height());
  const auto* got = reinterpret_cast<const double*>(shipped.data());
  const auto* in = reinterpret_cast<const double*>(raw.data());
  for (std::size_t i = 0; i < shipped.pixels().size() * 3; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(corpus_round(in[i])))
        << "channel " << i << " of " << in[i];
    ASSERT_TRUE(got[i] >= 0.0 && got[i] <= 255.0 &&
                got[i] == static_cast<double>(static_cast<int>(got[i])));
  }
}

/// A call that answers one fixed pair and records the hooks it receives.
struct FixedCall final : reenact::CallSource {
  chat::FramePair next() override { return pair; }
  void set_actor(reenact::PeerRole role) override { actor = role; }
  void apply_faults(const faults::FaultConfig&, std::uint64_t p) override {
    phase = p;
  }
  chat::FramePair pair;
  reenact::PeerRole actor = reenact::PeerRole::kLegitimate;
  std::uint64_t phase = 0;
};

TEST(ChatSource, EightBitCallRoundsEdgeValuesLikeTheCorpus) {
  const double kValues[] = {-3.0, -0.0, 0.49, 0.5,   127.5,
                            254.49, 254.5, 255.0, 255.4, 300.0};
  auto fixed = std::make_unique<FixedCall>();
  FixedCall& raw = *fixed;  // owned by the wrapper from here on
  chat::FramePair& pair = raw.pair;
  pair.t_sec = 1.5;
  pair.transmitted = image::Image(std::size(kValues), 1);
  pair.received = image::Image(std::size(kValues), 1);
  for (std::size_t i = 0; i < std::size(kValues); ++i) {
    const double v = kValues[i];
    pair.transmitted.at(i, 0) = image::Pixel{v, -v, v + 1.0};
    pair.received.at(i, 0) = image::Pixel{v - 1.0, v, 2.0 * v};
  }
  const auto call = make_eight_bit_call(std::move(fixed));
  const chat::FramePair shipped = call->next();
  EXPECT_EQ(shipped.t_sec, 1.5);
  expect_rounded(shipped.transmitted, pair.transmitted);
  expect_rounded(shipped.received, pair.received);
  // The edge values by hand: -3 -> 0, 254.49 -> 254, 254.5 -> 255, 300 -> 255.
  EXPECT_EQ(shipped.transmitted.at(0, 0).r, 0.0);
  EXPECT_EQ(shipped.transmitted.at(5, 0).r, 254.0);
  EXPECT_EQ(shipped.transmitted.at(6, 0).r, 255.0);
  EXPECT_EQ(shipped.transmitted.at(9, 0).r, 255.0);

  // The mid-call hooks reach the wrapped call.
  call->set_actor(reenact::PeerRole::kAttacker);
  call->apply_faults(faults::FaultConfig{}, 7);
  EXPECT_EQ(raw.actor, reenact::PeerRole::kAttacker);
  EXPECT_EQ(raw.phase, 7u);
}

TEST(ChatSource, LoadGeneratorChatsShipTheCallsFramesRoundedToBytes) {
  for (const bool full_chat : {false, true}) {
    for (const double severity : {0.0, 0.3}) {
      SCOPED_TRACE(::testing::Message()
                   << "full_chat " << full_chat << " faults " << severity);
      LoadSpec spec;
      spec.duration_s = 2.0;
      spec.full_chat = full_chat;
      spec.faults = faults::FaultConfig::uniform(severity);
      spec.master_seed = 20200707;
      for (const std::size_t ordinal : {std::size_t{3}, std::size_t{4}}) {
        const bool attacker = ordinal == 4;
        // The unrounded call, built from make_chat_source's recipe.
        reenact::CallRecipe recipe;
        recipe.session.duration_s = spec.duration_s;
        recipe.session.sample_rate_hz = spec.sample_rate_hz;
        recipe.session.warmup_s = spec.warmup_s;
        recipe.session.faults = spec.faults;
        recipe.victim = face::make_volunteer_face(ordinal % 10);
        const auto raw = reenact::make_call(
            recipe, common::derive_seed(spec.master_seed, ordinal),
            attacker ? reenact::PeerRole::kAttacker
                     : reenact::PeerRole::kLegitimate,
            full_chat);
        const auto shipped = make_chat_source(spec, ordinal, attacker);
        for (int tick = 0; tick < 20; ++tick) {
          const chat::FramePair want = raw->next();
          const chat::FramePair got = shipped->next();
          ASSERT_EQ(got.t_sec, want.t_sec);
          ASSERT_NO_FATAL_FAILURE(
              expect_rounded(got.transmitted, want.transmitted));
          ASSERT_NO_FATAL_FAILURE(expect_rounded(got.received, want.received));
        }
      }
    }
  }
}

}  // namespace
}  // namespace lumichat::service
