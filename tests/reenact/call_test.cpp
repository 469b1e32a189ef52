#include "reenact/call.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "image/luminance.hpp"
#include "signal/stats.hpp"

namespace lumichat::reenact {
namespace {

CallRecipe short_recipe() {
  CallRecipe recipe;
  recipe.session.duration_s = 2.0;
  recipe.session.warmup_s = 1.0;
  recipe.victim = face::make_volunteer_face(3);
  recipe.adaptive_delay_s = 0.4;
  return recipe;
}

void expect_same_frame(const image::Image& a, const image::Image& b,
                       std::size_t tick) {
  ASSERT_EQ(a.width(), b.width()) << "tick " << tick;
  ASSERT_EQ(a.height(), b.height()) << "tick " << tick;
  EXPECT_TRUE(a.pixels() == b.pixels()) << "tick " << tick;
}

TEST(Call, RecordedClipIsTheStreamedCallBitForBit) {
  // The dataset records calls, the load generator and the scenario engine
  // stream them: both must be the same call for every role.
  const CallRecipe recipe = short_recipe();
  for (const PeerRole role : {PeerRole::kLegitimate, PeerRole::kAttacker,
                              PeerRole::kAdaptiveAttacker}) {
    SCOPED_TRACE(static_cast<int>(role));
    const chat::SessionTrace trace = record_call(recipe, 99, role);
    const auto source = make_call(recipe, 99, role, /*full_chat=*/true);
    ASSERT_EQ(trace.received.size(), 20u);
    for (std::size_t i = 0; i < trace.received.size(); ++i) {
      const chat::FramePair pair = source->next();
      expect_same_frame(pair.transmitted, trace.transmitted.frames[i], i);
      expect_same_frame(pair.received, trace.received.frames[i], i);
    }
  }
}

TEST(Call, RolesAndStreamLayoutsGiveDifferentCalls) {
  CallRecipe recipe = short_recipe();
  const chat::FramePair legit =
      make_call(recipe, 5, PeerRole::kLegitimate, true)->next();
  const chat::FramePair attacker =
      make_call(recipe, 5, PeerRole::kAttacker, true)->next();
  recipe.streams = kSwappablePeerStreams;
  const chat::FramePair swappable =
      make_call(recipe, 5, PeerRole::kLegitimate, true)->next();
  // Each role and each layout has its own transport stream and peer.
  EXPECT_FALSE(legit.transmitted.pixels() == attacker.transmitted.pixels());
  EXPECT_FALSE(legit.received.pixels() == attacker.received.pixels());
  EXPECT_FALSE(legit.transmitted.pixels() == swappable.transmitted.pixels());
  EXPECT_FALSE(legit.received.pixels() == swappable.received.pixels());
}

TEST(Call, SyntheticStandInFollowsTheActor) {
  CallRecipe recipe;
  recipe.session.sample_rate_hz = 10.0;
  const auto source = make_call(recipe, 17, PeerRole::kLegitimate,
                                /*full_chat=*/false);
  const auto correlation = [&source] {
    std::vector<double> tx;
    std::vector<double> rx;
    for (int i = 0; i < 200; ++i) {
      const chat::FramePair pair = source->next();
      EXPECT_EQ(pair.received.width(), 8u);
      tx.push_back(image::frame_luminance(pair.transmitted));
      rx.push_back(image::frame_luminance(pair.received));
    }
    return signal::pearson(tx, rx);
  };
  EXPECT_GT(correlation(), 0.95);  // the reflection tracks Alice
  source->set_actor(PeerRole::kAttacker);
  source->apply_faults(faults::FaultConfig::uniform(1.0), 1);  // a no-op
  EXPECT_LT(correlation(), 0.5);
  source->set_actor(PeerRole::kLegitimate);
  EXPECT_GT(correlation(), 0.95);
}

}  // namespace
}  // namespace lumichat::reenact
