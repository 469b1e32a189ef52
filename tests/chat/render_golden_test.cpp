// Golden regression for the rendered bits of the chat simulator: a fixed
// (profile, master seed, volunteer, clip) must keep producing exactly the
// same f64 frames, on both sides of the chat, for a legitimate user and a
// reenactment attacker. The CRC-32 runs over the raw IEEE-754 bytes of
// every transmitted and received frame, so a change in any camera-noise
// draw, codec rounding or exposure step shows up here even when it is too
// small to move the Fig. 11 TAR/TRR golden.
//
// Performance work on the simulator (batched normal draws, SIMD develop
// and codec kernels) must leave these values alone under every kernel
// table; the test runs in the integration tier of both the default and the
// LUMICHAT_SIMD=scalar CI jobs. If a change legitimately alters the
// simulation, re-pin using the values this test prints.
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "chat/video.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "wire/crc32.hpp"

namespace lumichat::eval {
namespace {

struct SessionCrcs {
  std::uint32_t transmitted = 0;
  std::uint32_t received = 0;
};

std::uint32_t clip_crc(const chat::VideoClip& clip) {
  std::uint32_t state = wire::kCrc32Init;
  for (const auto& frame : clip.frames) {
    state = wire::crc32_update(
        state, reinterpret_cast<const std::uint8_t*>(frame.data()),
        frame.pixels().size() * sizeof(image::Pixel));
  }
  return wire::crc32_final(state);
}

SessionCrcs trace_crcs(const chat::SessionTrace& trace) {
  return {clip_crc(trace.transmitted), clip_crc(trace.received)};
}

SimulationProfile short_profile() {
  SimulationProfile profile;  // 96x72 frames, default codec and network
  profile.clip_duration_s = 2.0;
  profile.master_seed = 20200707;
  return profile;
}

// Pinned before the batched normal fill and the develop/codec kernels
// landed: the per-pixel std::normal_distribution path produced these.
constexpr SessionCrcs kLegitGolden{0x0569b630u, 0x144720ccu};
constexpr SessionCrcs kAttackerGolden{0x61213bd0u, 0x80fd4e43u};

TEST(RenderGolden, LegitSessionFramesAreFrozen) {
  const DatasetBuilder data(short_profile());
  const auto pop = make_population(1);
  const auto trace = data.legit_trace(pop[0], 3);
  ASSERT_EQ(trace.transmitted.size(), 20u);
  ASSERT_EQ(trace.received.size(), 20u);
  const SessionCrcs got = trace_crcs(trace);
  std::printf("legit = {0x%08xu, 0x%08xu}\n", got.transmitted, got.received);
  EXPECT_EQ(got.transmitted, kLegitGolden.transmitted);
  EXPECT_EQ(got.received, kLegitGolden.received);
}

TEST(RenderGolden, AttackerSessionFramesAreFrozen) {
  const DatasetBuilder data(short_profile());
  const auto pop = make_population(1);
  const auto trace = data.attacker_trace(pop[0], 3);
  ASSERT_EQ(trace.transmitted.size(), 20u);
  ASSERT_EQ(trace.received.size(), 20u);
  const SessionCrcs got = trace_crcs(trace);
  std::printf("attacker = {0x%08xu, 0x%08xu}\n", got.transmitted,
              got.received);
  EXPECT_EQ(got.transmitted, kAttackerGolden.transmitted);
  EXPECT_EQ(got.received, kAttackerGolden.received);
}

}  // namespace
}  // namespace lumichat::eval
