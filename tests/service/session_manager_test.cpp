#include "service/session_manager.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/registry.hpp"
#include "obs/explain.hpp"
#include "obs/flight_recorder.hpp"
#include "service/scheduler.hpp"
#include "service_test_util.hpp"

namespace lumichat::service {
namespace {

using testutil::frame;
using testutil::test_streaming_config;
using testutil::trained_registry;
using testutil::wave;

ServiceConfig small_config(std::size_t max_sessions = 8,
                           std::size_t queue_capacity = 32) {
  ServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.max_sessions = max_sessions;
  cfg.session_queue_capacity = queue_capacity;
  return cfg;
}

/// Feeds `n` frames of the deterministic wave at 10 Hz, starting at tick
/// `first_tick`. Returns how many feeds were accepted.
std::size_t feed_wave(SessionManager& m, SessionId id, std::size_t n,
                      std::size_t first_tick = 0) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t tick = first_tick + i;
    const double t = static_cast<double>(tick) * 0.1;
    if (m.feed(id, t, frame(wave(tick)), frame(0.6 * wave(tick) + 20.0))) {
      ++accepted;
    }
  }
  return accepted;
}

std::uint64_t counter_value(const obs::RegistrySnapshot& s,
                            const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

std::uint64_t histogram_count(const obs::RegistrySnapshot& s,
                              const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return h.count;
  }
  ADD_FAILURE() << "no histogram " << name;
  return 0;
}

TEST(SessionManager, RequiresPublishedModel) {
  EXPECT_THROW(
      SessionManager(small_config(), test_streaming_config(), nullptr),
      std::invalid_argument);
  // A registry with no published snapshot is just as unusable.
  EXPECT_THROW(SessionManager(small_config(), test_streaming_config(),
                              std::make_shared<model::ModelRegistry>()),
               std::invalid_argument);
}

TEST(SessionManager, RejectsBrokenFilterDesignAtConstruction) {
  // Not at the first create(), and not when that session's first window
  // closes inside a drain.
  core::StreamingConfig broken = test_streaming_config();
  broken.detector.lowpass_cutoff_hz = broken.detector.sample_rate_hz / 2.0;
  EXPECT_THROW(SessionManager(small_config(), broken, trained_registry()),
               std::invalid_argument);
}

TEST(SessionManager, CreateFeedVerdictEvictLifecycle) {
  SessionManager m(small_config(), test_streaming_config(),
                 trained_registry());
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(m.active_sessions(), 1u);

  // 2 s window at 10 Hz: 20 frames complete exactly one window; 5 more
  // accumulate toward the next.
  EXPECT_EQ(feed_wave(m, *id, 25), 25u);

  const auto running = m.running_verdict(*id);
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->total_votes, 1u);
  const auto verdicts = m.verdicts(*id);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].window_index, 0u);
  EXPECT_GE(verdicts[0].push_to_verdict_s, 0.0);

  const auto report = m.evict(*id);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->windows_completed, 1u);
  EXPECT_EQ(report->verdict.total_votes, 1u);
  // The 5 extra frames were partial-window evidence, now accounted for.
  EXPECT_EQ(report->pending_samples_dropped, 5u);
  EXPECT_NEAR(report->window_fill, 0.25, 1e-12);
  EXPECT_EQ(m.active_sessions(), 0u);

  // The session is gone: every operation degrades gracefully.
  EXPECT_FALSE(m.feed(*id, 99.0, frame(1), frame(1)));
  EXPECT_FALSE(m.running_verdict(*id).has_value());
  EXPECT_TRUE(m.verdicts(*id).empty());
  EXPECT_FALSE(m.evict(*id).has_value());
}

TEST(SessionManager, AdmissionControlRejectsPastCapacity) {
  SessionManager m(small_config(/*max_sessions=*/2),
                 test_streaming_config(), trained_registry());
  const auto a = m.create();
  const auto b = m.create();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(m.create().has_value());
  EXPECT_EQ(m.metrics_snapshot().sessions_rejected, 1u);

  // Eviction frees a slot.
  EXPECT_TRUE(m.evict(*a).has_value());
  EXPECT_TRUE(m.create().has_value());
}

TEST(SessionManager, DropOldestBackpressureIsObservable) {
  // With a scheduler attached, frames queue until pump() — so a burst
  // larger than the queue capacity sheds its oldest frames.
  SessionManager m(small_config(8, /*queue_capacity=*/4),
                   test_streaming_config(), trained_registry());
  FrameScheduler scheduler(nullptr);
  m.attach_scheduler(&scheduler);
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());

  EXPECT_EQ(feed_wave(m, *id, 10), 10u);
  MetricsSnapshot s = m.metrics_snapshot();
  EXPECT_EQ(s.frames_in, 10u);
  EXPECT_EQ(s.frames_dropped, 6u);
  EXPECT_EQ(s.frames_processed, 0u);

  EXPECT_EQ(scheduler.pump(), 4u);
  s = m.metrics_snapshot();
  EXPECT_EQ(s.frames_processed, 4u);
}

TEST(SessionManager, EvictionDiscardsQueuedFramesAsDropped) {
  SessionManager m(small_config(), test_streaming_config(),
                 trained_registry());
  FrameScheduler scheduler(nullptr);
  m.attach_scheduler(&scheduler);
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(feed_wave(m, *id, 5), 5u);  // queued, never pumped

  const auto report = m.evict(*id);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->windows_completed, 0u);
  const MetricsSnapshot s = m.metrics_snapshot();
  EXPECT_EQ(s.frames_dropped, 5u);
  EXPECT_EQ(s.frames_processed, 0u);
  EXPECT_EQ(s.sessions_evicted, 1u);
}

TEST(SessionManager, RecycledDetectorMatchesFreshClone) {
  // Session 1 runs a full window and is evicted; its detector lands on the
  // freelist and session 2 reuses it after reset(). A second manager with
  // the same prototype serves the reference: session 2's verdicts must be
  // bit-identical to a never-recycled detector's.
  SessionManager recycled(small_config(), test_streaming_config(),
                          trained_registry());
  SessionManager fresh(small_config(), test_streaming_config(),
                       trained_registry());

  const auto warm = recycled.create();
  ASSERT_TRUE(warm.has_value());
  feed_wave(recycled, *warm, 33);  // one window + a partial
  ASSERT_TRUE(recycled.evict(*warm).has_value());

  const auto a = recycled.create();  // gets the recycled detector
  const auto b = fresh.create();     // gets a pristine clone
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  feed_wave(recycled, *a, 45);
  feed_wave(fresh, *b, 45);

  const auto va = recycled.verdicts(*a);
  const auto vb = fresh.verdicts(*b);
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_EQ(va.size(), 2u);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].is_attacker, vb[i].is_attacker);
    EXPECT_EQ(va[i].lof_score, vb[i].lof_score);  // bit-exact
  }
}

TEST(SessionManager, RecycledSessionStampsItsOwnIdIntoExplanations) {
  // The scenario miner joins audit-trail lines to callers by session id; a
  // recycled detector must emit the *new* session's id from round 0. The
  // first session here is evicted mid-window, so stale pending samples are
  // also on the line.
  obs::CollectingExplanationSink sink;
  SessionManager m(small_config(), test_streaming_config(),
                   trained_registry(), &sink);

  const auto first = m.create();
  ASSERT_TRUE(first.has_value());
  feed_wave(m, *first, 27);  // one window + 7 pending
  const auto closed = m.evict(*first);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->pending_samples_dropped, 7u);

  const auto second = m.create();  // reuses the freelisted detector
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);
  feed_wave(m, *second, 20);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].stream_id, *first);
  EXPECT_EQ(records[1].stream_id, *second);
  EXPECT_EQ(records[1].round_index, 0u);  // numbering restarted with reuse
}

TEST(SessionManager, DistinctSessionsAreIndependent) {
  SessionManager m(small_config(), test_streaming_config(),
                 trained_registry());
  const auto a = m.create();
  const auto b = m.create();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  feed_wave(m, *a, 20);
  EXPECT_EQ(m.verdicts(*a).size(), 1u);
  EXPECT_TRUE(m.verdicts(*b).empty());
}

TEST(ServiceCapacity, EnvironmentKnobParsesLikeThreads) {
  // LUMICHAT_SERVICE_CAPACITY is parsed exactly like LUMICHAT_THREADS:
  // a whole positive decimal wins, anything else falls back to the default.
  ASSERT_EQ(setenv("LUMICHAT_SERVICE_CAPACITY", "37", 1), 0);
  EXPECT_EQ(default_service_capacity(), 37u);
  for (const char* bad : {"0", "-3", "garbage", "", "4x", "1e3", " 5", "+5",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("LUMICHAT_SERVICE_CAPACITY", bad, 1), 0);
    EXPECT_EQ(default_service_capacity(), 4096u) << '"' << bad << '"';
  }
  ASSERT_EQ(unsetenv("LUMICHAT_SERVICE_CAPACITY"), 0);
  EXPECT_EQ(default_service_capacity(), 4096u);
}

TEST(ServiceCapacity, ZeroMaxSessionsUsesDefaultCapacity) {
  ASSERT_EQ(setenv("LUMICHAT_SERVICE_CAPACITY", "3", 1), 0);
  SessionManager m(ServiceConfig{}, test_streaming_config(),
                 trained_registry());
  EXPECT_EQ(m.capacity(), 3u);
  ASSERT_EQ(unsetenv("LUMICHAT_SERVICE_CAPACITY"), 0);
}

TEST(SessionManager, StageLatenciesRecordedPerCompletedFrame) {
  SessionManager m(small_config(), test_streaming_config(),
                   trained_registry());
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(feed_wave(m, *id, 20), 20u);  // one full window

  // Every drained frame contributes one queue-wait and one detect sample;
  // push_to_verdict only fires on window completion.
  const obs::RegistrySnapshot s = m.metrics().snapshot();
  EXPECT_EQ(histogram_count(s, "service.stage.queue_wait"), 20u);
  EXPECT_EQ(histogram_count(s, "service.stage.detect"), 20u);
  EXPECT_EQ(histogram_count(s, "service.push_to_verdict"), 1u);
}

TEST(SessionManager, ServiceInstrumentsFollowTheSessionLifecycle) {
  SessionManager m(small_config(/*max_sessions=*/2, /*queue_capacity=*/4),
                   test_streaming_config(), trained_registry());
  FrameScheduler scheduler(nullptr);
  m.attach_scheduler(&scheduler);
  // The constructor resolved every instrument; nothing below looks one up.
  const std::uint64_t lookups = m.metrics().lookup_count();

  const auto a = m.create();
  const auto b = m.create();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(m.create().has_value());  // admission reject

  // One full window, fed four frames (one queue's worth) per pump.
  for (std::size_t tick = 0; tick < 20; tick += 4) {
    EXPECT_EQ(feed_wave(m, *a, 4, tick), 4u);
    EXPECT_EQ(scheduler.pump(), 4u);
  }
  // Six more without a pump: the 4-slot queue sheds its two oldest, then
  // eviction discards the four still queued.
  EXPECT_EQ(feed_wave(m, *a, 6, 20), 6u);
  const auto closed = m.evict(*a);
  ASSERT_TRUE(closed.has_value());
  ASSERT_EQ(closed->window_verdicts.size(), 1u);
  const WindowVerdict& w = closed->window_verdicts[0];
  EXPECT_EQ(m.metrics().lookup_count(), lookups);

  const MetricsSnapshot snap = m.metrics_snapshot();
  EXPECT_EQ(snap.sessions_created, 2u);
  EXPECT_EQ(snap.sessions_rejected, 1u);
  EXPECT_EQ(snap.sessions_evicted, 1u);
  EXPECT_EQ(snap.sessions_active, 1u);
  EXPECT_EQ(snap.frames_in, 26u);
  EXPECT_EQ(snap.frames_dropped, 6u);
  EXPECT_EQ(snap.frames_processed, 20u);
  EXPECT_EQ(snap.windows_completed, 1u);
  EXPECT_EQ(snap.verdicts_legit,
            w.verdict == core::Verdict::kLegitimate ? 1u : 0u);
  EXPECT_EQ(snap.verdicts_attacker,
            w.verdict == core::Verdict::kAttacker ? 1u : 0u);
  EXPECT_EQ(snap.verdicts_abstain,
            w.verdict == core::Verdict::kAbstain ? 1u : 0u);
  // One latency sample: every bucket quantile is its bucket's midpoint,
  // and the exact mean and max are the sample itself.
  EXPECT_GT(snap.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(snap.latency_p95_s, snap.latency_p50_s);
  EXPECT_DOUBLE_EQ(snap.latency_p99_s, snap.latency_p50_s);
  EXPECT_DOUBLE_EQ(snap.latency_p999_s, snap.latency_p50_s);
  EXPECT_DOUBLE_EQ(snap.latency_mean_s, w.push_to_verdict_s);
  EXPECT_DOUBLE_EQ(snap.latency_max_s, w.push_to_verdict_s);

  // The registry holds the same values under the exported service.* names.
  const obs::RegistrySnapshot s = m.metrics().snapshot();
  EXPECT_EQ(s.counters.size(), 10u);
  EXPECT_EQ(s.histograms.size(), 4u);
  EXPECT_TRUE(s.gauges.empty());
  EXPECT_EQ(counter_value(s, "service.sessions_created"),
            snap.sessions_created);
  EXPECT_EQ(counter_value(s, "service.sessions_rejected"),
            snap.sessions_rejected);
  EXPECT_EQ(counter_value(s, "service.sessions_evicted"),
            snap.sessions_evicted);
  EXPECT_EQ(counter_value(s, "service.frames_in"), snap.frames_in);
  EXPECT_EQ(counter_value(s, "service.frames_dropped"), snap.frames_dropped);
  EXPECT_EQ(counter_value(s, "service.frames_processed"),
            snap.frames_processed);
  EXPECT_EQ(counter_value(s, "service.windows_completed"),
            snap.windows_completed);
  EXPECT_EQ(counter_value(s, "service.verdicts_legit"), snap.verdicts_legit);
  EXPECT_EQ(counter_value(s, "service.verdicts_attacker"),
            snap.verdicts_attacker);
  EXPECT_EQ(counter_value(s, "service.verdicts_abstain"),
            snap.verdicts_abstain);
  EXPECT_EQ(histogram_count(s, "service.push_to_verdict"), 1u);
  EXPECT_EQ(histogram_count(s, "service.stage.queue_wait"), 20u);
  EXPECT_EQ(histogram_count(s, "service.stage.detect"), 20u);
  EXPECT_EQ(histogram_count(s, "service.stage.window"), 1u);
}

TEST(SessionManager, ShardSessionCountsSumToActive) {
  SessionManager m(small_config(/*max_sessions=*/8), test_streaming_config(),
                   trained_registry());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(m.create().has_value());
  const std::vector<std::size_t> counts = m.shard_session_counts();
  EXPECT_EQ(counts.size(), m.config().n_shards);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  EXPECT_EQ(total, 5u);
}

TEST(SessionManager, FlightRecorderReceivesFrameAndEvictEntries) {
  obs::FlightRecorder recorder(/*lanes=*/4, /*entries_per_lane=*/64);
  SessionManager m(small_config(), test_streaming_config(),
                   trained_registry());
  m.attach_flight_recorder(&recorder);
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(feed_wave(m, *id, 20), 20u);
  ASSERT_TRUE(m.evict(*id).has_value());

  std::size_t frames = 0;
  std::size_t evicts = 0;
  for (const obs::FlightEntry& e : recorder.collect()) {
    if (e.kind == obs::FlightKind::kFrame) {
      ++frames;
      EXPECT_EQ(e.session_id, *id);
      // A completed window's timeline carries real stage latencies.
      EXPECT_GT(e.total_s, 0.0);
      EXPECT_GE(e.queue_wait_s, 0.0);
      EXPECT_GT(e.detect_s, 0.0);
    }
    if (e.kind == obs::FlightKind::kSessionEvict) {
      ++evicts;
      EXPECT_EQ(e.session_id, *id);
      EXPECT_EQ(e.window_index, 1u);  // windows completed at teardown
    }
  }
  EXPECT_EQ(frames, 1u);  // one per completed window verdict
  EXPECT_EQ(evicts, 1u);
}

TEST(SessionManager, SessionsWithoutRecorderRecordNothing) {
  // The null-gated path: no recorder attached means no flight entries and
  // no timing side effects (the bit-identity gate depends on this).
  SessionManager m(small_config(), test_streaming_config(),
                   trained_registry());
  EXPECT_EQ(m.flight_recorder(), nullptr);
  const auto id = m.create();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(feed_wave(m, *id, 20), 20u);
  EXPECT_EQ(m.verdicts(*id).size(), 1u);
}

}  // namespace
}  // namespace lumichat::service
