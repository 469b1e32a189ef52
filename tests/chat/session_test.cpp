#include "chat/session.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "chat/frame_source.hpp"

#include "image/luminance.hpp"
#include "signal/stats.hpp"

namespace lumichat::chat {
namespace {

AliceStream make_alice(std::uint64_t seed) {
  common::Rng rng(seed);
  return AliceStream(AliceSpec{}, make_metering_script(15.0, rng), seed);
}

TEST(Session, ProducesClipsOfRequestedLength) {
  SessionSpec spec;
  AliceStream alice = make_alice(1);
  LegitimateRespondent bob(LegitimateSpec{}, 2);
  const SessionTrace trace = run_session(spec, alice, bob, 3);
  EXPECT_EQ(trace.transmitted.size(), 150u);
  EXPECT_EQ(trace.received.size(), 150u);
  EXPECT_DOUBLE_EQ(trace.transmitted.sample_rate_hz, 10.0);
}

TEST(Session, CustomRateAndDuration) {
  SessionSpec spec;
  spec.duration_s = 5.0;
  spec.sample_rate_hz = 8.0;
  AliceStream alice = make_alice(1);
  LegitimateRespondent bob(LegitimateSpec{}, 2);
  const SessionTrace trace = run_session(spec, alice, bob, 3);
  EXPECT_EQ(trace.transmitted.size(), 40u);
  EXPECT_EQ(trace.received.size(), 40u);
}

TEST(Session, TickCountRoundsToTheNearestTick) {
  EXPECT_EQ(tick_count(15.0, 10.0), 150u);
  EXPECT_EQ(tick_count(0.26, 10.0), 3u);
  EXPECT_EQ(tick_count(0.0, 10.0), 0u);
}

TEST(Session, TickCountRejectsNonFiniteNegativeAndOverflowingCounts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)tick_count(nan, 10.0), std::invalid_argument);
  EXPECT_THROW((void)tick_count(1.0, nan), std::invalid_argument);
  EXPECT_THROW((void)tick_count(inf, 10.0), std::invalid_argument);
  EXPECT_THROW((void)tick_count(0.0, inf), std::invalid_argument);
  EXPECT_THROW((void)tick_count(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)tick_count(1e300, 10.0), std::invalid_argument);
  EXPECT_THROW((void)tick_count(std::ldexp(1.0, 63), 1.0),
               std::invalid_argument);
}

TEST(Session, NanDurationThrowsInsteadOfSizingTheClip) {
  SessionSpec spec;
  spec.duration_s = std::numeric_limits<double>::quiet_NaN();
  AliceStream alice = make_alice(1);
  LegitimateRespondent bob(LegitimateSpec{}, 2);
  EXPECT_THROW((void)run_session(spec, alice, bob, 3), std::invalid_argument);
}

TEST(Session, NanWarmupThrowsAtFrameSourceConstruction) {
  SessionSpec spec;
  spec.warmup_s = std::numeric_limits<double>::quiet_NaN();
  AliceStream alice = make_alice(1);
  LegitimateRespondent bob(LegitimateSpec{}, 2);
  EXPECT_THROW(SessionFrameSource(spec, alice, bob, 3), std::invalid_argument);
}

TEST(Session, WarmupEliminatesStartupTransient) {
  // With warm-up, the first received frames must already show a lit,
  // exposed scene (no black frames, no exposure snap).
  SessionSpec spec;  // default warmup 3 s
  AliceStream alice = make_alice(4);
  LegitimateRespondent bob(LegitimateSpec{}, 5);
  const SessionTrace trace = run_session(spec, alice, bob, 6);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_FALSE(trace.received.frames[i].empty()) << "frame " << i;
    EXPECT_GT(image::frame_luminance(trace.received.frames[i]), 10.0);
  }
}

TEST(Session, NoWarmupShowsEmptyLeadingFrames) {
  SessionSpec spec;
  spec.warmup_s = 0.0;
  spec.bob_to_alice.delay_s = 0.3;
  spec.bob_to_alice.jitter_sigma_s = 0.0;
  AliceStream alice = make_alice(4);
  LegitimateRespondent bob(LegitimateSpec{}, 5);
  const SessionTrace trace = run_session(spec, alice, bob, 6);
  EXPECT_TRUE(trace.received.frames[0].empty());
  EXPECT_FALSE(trace.received.frames.back().empty());
}

TEST(Session, TransmittedLuminanceHasSignificantChanges) {
  SessionSpec spec;
  AliceStream alice = make_alice(7);
  LegitimateRespondent bob(LegitimateSpec{}, 8);
  const SessionTrace trace = run_session(spec, alice, bob, 9);
  const auto t = trace.transmitted.frame_luminance_signal();
  EXPECT_GT(signal::max_value(t) - signal::min_value(t), 80.0);
}

TEST(Session, StatePersistsAcrossRounds) {
  // Running two consecutive windows with the same endpoints continues the
  // chat: exposure stays adapted, so round 2 has no startup spike either.
  SessionSpec spec;
  AliceStream alice = make_alice(10);
  LegitimateRespondent bob(LegitimateSpec{}, 11);
  (void)run_session(spec, alice, bob, 12);
  const SessionTrace round2 = run_session(spec, alice, bob, 13);
  EXPECT_EQ(round2.received.size(), 150u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(round2.received.frames[i].empty());
  }
}

TEST(Session, DeterministicForSameSeeds) {
  SessionSpec spec;
  AliceStream alice_a = make_alice(20);
  LegitimateRespondent bob_a(LegitimateSpec{}, 21);
  const SessionTrace ta = run_session(spec, alice_a, bob_a, 22);

  AliceStream alice_b = make_alice(20);
  LegitimateRespondent bob_b(LegitimateSpec{}, 21);
  const SessionTrace tb = run_session(spec, alice_b, bob_b, 22);

  const auto sa = ta.received.frame_luminance_signal();
  const auto sb = tb.received.frame_luminance_signal();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i], sb[i]) << "sample " << i;
  }
}

}  // namespace
}  // namespace lumichat::chat
