// Golden regression for the rendered bits of the chat simulator: a fixed
// (profile, master seed, volunteer, clip) must keep producing exactly the
// same f64 frames, on both sides of the chat, for a legitimate user, a
// reenactment attacker and an adaptive attacker, and likewise for the
// service load generator's chats (with and without injected faults, which
// covers camera drift and the link injectors). The CRC-32 runs over the raw
// IEEE-754 bytes of every transmitted and received frame, so a change in
// any camera-noise draw, codec rounding or exposure step shows up here even
// when it is too small to move the Fig. 11 TAR/TRR golden.
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
#include "faults/fault_config.hpp"
#include "service/load_generator.hpp"
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
// Pinned before the dataset, the load generator and the scenario engine
// were rebuilt on one simulated-call recipe.
constexpr SessionCrcs kAdaptiveGolden{0x70d632e1u, 0xa246133du};
// The load generator's chats ship 8-bit video: these are the earlier
// pins' frames with every channel clamped to [0, 255] and rounded half up.
constexpr SessionCrcs kLoadLegitGolden{0x3ef8f3d3u, 0x65c0d618u};
constexpr SessionCrcs kLoadAttackerGolden{0x04b2ea2fu, 0x1c1362d2u};
constexpr SessionCrcs kLoadFaultedGolden{0x6dfc79c9u, 0x0b867d34u};

service::LoadSpec short_load() {
  service::LoadSpec spec;  // full chat, 1 s warm-up
  spec.duration_s = 2.0;
  spec.master_seed = 20200707;
  return spec;
}

/// The first 20 frame pairs of load-generator chat `ordinal`.
chat::SessionTrace load_trace(const service::LoadSpec& spec,
                              std::size_t ordinal, bool attacker) {
  const auto source = service::make_chat_source(spec, ordinal, attacker);
  chat::SessionTrace trace;
  for (std::size_t i = 0; i < 20; ++i) {
    chat::FramePair pair = source->next();
    trace.transmitted.frames.push_back(std::move(pair.transmitted));
    trace.received.frames.push_back(std::move(pair.received));
  }
  return trace;
}

void expect_golden(const char* name, const chat::SessionTrace& trace,
                   const SessionCrcs& golden) {
  ASSERT_EQ(trace.transmitted.size(), 20u);
  ASSERT_EQ(trace.received.size(), 20u);
  const SessionCrcs got = trace_crcs(trace);
  std::printf("%s = {0x%08xu, 0x%08xu}\n", name, got.transmitted,
              got.received);
  EXPECT_EQ(got.transmitted, golden.transmitted);
  EXPECT_EQ(got.received, golden.received);
}

TEST(RenderGolden, LegitSessionFramesAreFrozen) {
  const DatasetBuilder data(short_profile());
  const auto pop = make_population(1);
  expect_golden("legit", data.legit_trace(pop[0], 3), kLegitGolden);
}

TEST(RenderGolden, AttackerSessionFramesAreFrozen) {
  const DatasetBuilder data(short_profile());
  const auto pop = make_population(1);
  expect_golden("attacker", data.attacker_trace(pop[0], 3), kAttackerGolden);
}

TEST(RenderGolden, AdaptiveSessionFramesAreFrozen) {
  const DatasetBuilder data(short_profile());
  const auto pop = make_population(1);
  expect_golden("adaptive", data.adaptive_trace(pop[0], 3, 0.5),
                kAdaptiveGolden);
}

TEST(RenderGolden, LoadGeneratorChatFramesAreFrozen) {
  expect_golden("load_legit", load_trace(short_load(), 3, false),
                kLoadLegitGolden);
  expect_golden("load_attacker", load_trace(short_load(), 4, true),
                kLoadAttackerGolden);
}

TEST(RenderGolden, FaultedLoadGeneratorChatFramesAreFrozen) {
  service::LoadSpec spec = short_load();
  spec.faults = faults::FaultConfig::uniform(0.3);
  expect_golden("load_faulted", load_trace(spec, 5, false),
                kLoadFaultedGolden);
}

}  // namespace
}  // namespace lumichat::eval
