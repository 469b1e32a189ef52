#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "service/session.hpp"
#include "service_test_util.hpp"

namespace lumichat::service {
namespace {

using testutil::frame;
using testutil::trained_prototype;
using testutil::wave;

std::shared_ptr<ServiceSession> make_session(SessionId id,
                                             std::size_t queue_capacity = 64) {
  static obs::MetricsRegistry registry;
  static const ServiceInstruments instruments(registry);
  return std::make_shared<ServiceSession>(id, trained_prototype(),
                                          queue_capacity, instruments);
}

void enqueue_wave(ServiceSession& s, std::size_t n,
                  std::size_t first_tick = 0) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t tick = first_tick + i;
    FrameJob job;
    job.t_sec = static_cast<double>(tick) * 0.1;
    job.transmitted = frame(wave(tick));
    job.received = frame(0.6 * wave(tick) + 20.0);
    job.enqueued_at = ServiceClock::now();
    ASSERT_TRUE(s.enqueue(std::move(job)));
  }
}

TEST(FrameScheduler, PumpOnEmptySchedulerIsANoOp) {
  FrameScheduler s(nullptr);
  EXPECT_EQ(s.pump(), 0u);
  EXPECT_EQ(s.ready_count(), 0u);
}

TEST(FrameScheduler, InlinePumpDrainsEveryQueuedFrame) {
  FrameScheduler scheduler(nullptr);
  auto session = make_session(1);
  enqueue_wave(*session, 25);
  scheduler.notify(session);
  EXPECT_EQ(scheduler.ready_count(), 1u);

  EXPECT_EQ(scheduler.pump(), 25u);
  EXPECT_EQ(scheduler.ready_count(), 0u);
  EXPECT_EQ(session->frames_processed(), 25u);
  EXPECT_EQ(session->queued_frames(), 0u);
  EXPECT_EQ(session->verdicts().size(), 1u);  // 20 frames = one 2 s window
}

TEST(FrameScheduler, NotifyIsIdempotentWhileReady) {
  FrameScheduler scheduler(nullptr);
  auto session = make_session(1);
  enqueue_wave(*session, 3);
  scheduler.notify(session);
  scheduler.notify(session);
  scheduler.notify(session);
  EXPECT_EQ(scheduler.ready_count(), 1u);
  EXPECT_EQ(scheduler.pump(), 3u);
}

TEST(FrameScheduler, NullSessionNotifyIsIgnored) {
  FrameScheduler scheduler(nullptr);
  scheduler.notify(nullptr);
  EXPECT_EQ(scheduler.ready_count(), 0u);
  EXPECT_EQ(scheduler.pump(), 0u);
}

TEST(FrameScheduler, SuccessivePumpsPickUpNewFrames) {
  FrameScheduler scheduler(nullptr);
  auto session = make_session(1);
  enqueue_wave(*session, 10);
  scheduler.notify(session);
  EXPECT_EQ(scheduler.pump(), 10u);

  enqueue_wave(*session, 10, /*first_tick=*/10);
  scheduler.notify(session);
  EXPECT_EQ(scheduler.pump(), 10u);
  EXPECT_EQ(session->frames_processed(), 20u);
  EXPECT_EQ(session->verdicts().size(), 1u);
}

TEST(FrameScheduler, DrainsManySessionsAcrossAPool) {
  common::ThreadPool pool(4);
  FrameScheduler scheduler(&pool);
  std::vector<std::shared_ptr<ServiceSession>> sessions;
  for (SessionId id = 1; id <= 24; ++id) {
    sessions.push_back(make_session(id));
    enqueue_wave(*sessions.back(), 20);
    scheduler.notify(sessions.back());
  }
  EXPECT_EQ(scheduler.pump(), 24u * 20u);
  for (const auto& s : sessions) {
    EXPECT_EQ(s->frames_processed(), 20u);
    EXPECT_EQ(s->verdicts().size(), 1u);
  }
}

TEST(FrameScheduler, PooledAndInlineDrainsAgreeBitExactly) {
  // The same frame sequence drained through a pool and inline must produce
  // identical verdicts — the session-level core of the service determinism
  // guarantee.
  common::ThreadPool pool(4);
  FrameScheduler pooled(&pool);
  FrameScheduler inline_s(nullptr);
  auto a = make_session(1);
  auto b = make_session(2);
  enqueue_wave(*a, 45);
  enqueue_wave(*b, 45);
  pooled.notify(a);
  inline_s.notify(b);
  EXPECT_EQ(pooled.pump(), 45u);
  EXPECT_EQ(inline_s.pump(), 45u);

  const auto va = a->verdicts();
  const auto vb = b->verdicts();
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_EQ(va.size(), 2u);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].is_attacker, vb[i].is_attacker);
    EXPECT_EQ(va[i].lof_score, vb[i].lof_score);
  }
}

TEST(ServiceSession, ReadyFlagGrantsExclusiveDrainOwnership) {
  auto session = make_session(1);
  EXPECT_TRUE(session->try_mark_ready());
  EXPECT_FALSE(session->try_mark_ready());  // second claimant loses
  EXPECT_FALSE(session->finish_drain());    // queue empty -> flag released
  EXPECT_TRUE(session->try_mark_ready());   // claimable again
  EXPECT_FALSE(session->finish_drain());
}

TEST(ServiceSession, FinishDrainRetainsOwnershipWhenFramesArrived) {
  auto session = make_session(1);
  ASSERT_TRUE(session->try_mark_ready());
  EXPECT_EQ(session->drain(), 0u);
  enqueue_wave(*session, 2);  // lands mid-drain, before finish
  EXPECT_TRUE(session->finish_drain());   // must re-drain
  EXPECT_EQ(session->drain(), 2u);
  EXPECT_FALSE(session->finish_drain());  // now truly idle
}

TEST(ServiceSession, CloseRejectsFurtherFramesAndFlushesPartialWindow) {
  auto session = make_session(1);
  enqueue_wave(*session, 25);
  ASSERT_TRUE(session->try_mark_ready());
  EXPECT_EQ(session->drain(), 25u);
  EXPECT_FALSE(session->finish_drain());

  const auto report = session->close();
  EXPECT_EQ(report.windows_completed, 1u);
  EXPECT_EQ(report.pending_samples_dropped, 5u);
  EXPECT_NEAR(report.window_fill, 0.25, 1e-12);

  FrameJob job;
  job.transmitted = frame(1.0);
  job.received = frame(1.0);
  EXPECT_FALSE(session->enqueue(std::move(job)));
}

}  // namespace
}  // namespace lumichat::service
