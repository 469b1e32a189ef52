// Golden regression for the streaming detector: fixed-seed simulated
// sessions, fed frame by frame into a StreamingDetector, must keep producing
// exactly these per-window results. Each window is rendered as one string
// with every double in hex-float form, so the comparison is bit for bit over
// the verdict, the LOF score, z1..z4, the feature diagnostics and both
// SignalQuality structs.
//
// Every session runs two 15 s windows, with abstain off and on. One session
// loses its first 9 s of received frames, which exercises the leading
// backfill rule and, with abstain on, the abstain gate; it also loses a run
// of frames in its second window (hold-last). The test runs in the
// integration tier of both the default and the LUMICHAT_SIMD=scalar CI jobs.
// If a change legitimately alters the streaming verdicts, re-pin using the
// strings this test prints.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming.hpp"
#include "describe_result.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "model/snapshot.hpp"

namespace lumichat::core {
namespace {

using testutil::describe;

constexpr double kWindowS = 15.0;
constexpr std::size_t kWindows = 2;

struct Fixture {
  eval::SimulationProfile profile;  // 15 s clips: the training set
  std::shared_ptr<const model::LofModelSnapshot> model;
  std::vector<chat::SessionTrace> sessions;  // 2 windows each
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out;
    const auto pop = eval::make_population(2);
    const eval::DatasetBuilder train_data(out.profile);
    out.model = model::fit_lof_model(
        out.profile.detector_config(),
        train_data.features(pop[1], eval::Role::kLegitimate, 8));

    eval::SimulationProfile long_profile = out.profile;
    long_profile.clip_duration_s = kWindowS * static_cast<double>(kWindows);
    const eval::DatasetBuilder data(long_profile);
    out.sessions.push_back(data.legit_trace(pop[0], 0));
    out.sessions.push_back(data.attacker_trace(pop[0], 0));
    chat::SessionTrace lossy = data.legit_trace(pop[1], 1);
    for (std::size_t i = 0; i < 90; ++i) lossy.received.frames[i] = {};
    for (std::size_t i = 180; i < 192; ++i) lossy.received.frames[i] = {};
    out.sessions.push_back(std::move(lossy));
    return out;
  }();
  return f;
}

std::vector<std::string> stream_windows(const chat::SessionTrace& trace,
                                        bool abstain) {
  const Fixture& f = fixture();
  StreamingConfig cfg;
  cfg.detector = f.profile.detector_config();
  cfg.detector.enable_abstain = abstain;
  cfg.window_s = kWindowS;
  StreamingDetector sd(cfg);
  sd.attach_model(f.model);
  sd.set_explanation_sink(nullptr);

  std::vector<std::string> out;
  for (std::size_t i = 0; i < trace.transmitted.size(); ++i) {
    const double t = static_cast<double>(i) / f.profile.sample_rate_hz;
    if (const auto r = sd.push(t, trace.transmitted.frames[i],
                               trace.received.frames[i])) {
      out.push_back(describe(*r));
    }
  }
  return out;
}

// kGolden[session][abstain][window]; pinned before the streaming detector
// shared the batch Detector's window step and received-sample rule.
const char* const kGolden[3][2][kWindows] = {
    {
        {
            "v=0 atk=0 lof=0x1.22ada1e3641c3p+0"
            " z=0x1p+0,0x1p+0,0x1.e7105512164dep-1,0x1.04c5699fb0a4cp-2"
            " d=0x1.99999999999ap-2,3,3,3,3"
            " tq=3,0x1.b805c41cbc53bp+0,0x1p+0,1"
            " rq=3,0x1.0484f6e5c2dc6p+1,0x1p+0,1",
            "v=0 atk=0 lof=0x1.e1656ca306961p+0"
            " z=0x1p+0,0x1p+0,0x1.ff9807a561484p-1,0x1.51c5e95c9debdp-3"
            " d=0x1.666666666666p-2,2,2,2,2"
            " tq=2,0x1.47c27de4493c5p+1,0x1p+0,1"
            " rq=2,0x1.6d486aa7c2bd8p+1,0x1p+0,1",
        },
        {
            "v=0 atk=0 lof=0x1.22ada1e3641c3p+0"
            " z=0x1p+0,0x1p+0,0x1.e7105512164dep-1,0x1.04c5699fb0a4cp-2"
            " d=0x1.99999999999ap-2,3,3,3,3"
            " tq=3,0x1.b805c41cbc53bp+0,0x1p+0,1"
            " rq=3,0x1.0484f6e5c2dc6p+1,0x1p+0,1",
            "v=0 atk=0 lof=0x1.e1656ca306961p+0"
            " z=0x1p+0,0x1p+0,0x1.ff9807a561484p-1,0x1.51c5e95c9debdp-3"
            " d=0x1.666666666666p-2,2,2,2,2"
            " tq=2,0x1.47c27de4493c5p+1,0x1p+0,1"
            " rq=2,0x1.6d486aa7c2bd8p+1,0x1p+0,1",
        },
    },
    {
        {
            "v=1 atk=1 lof=0x1.8735d8e8c8cf2p+4"
            " z=0x0p+0,0x0p+0,-0x1.528f89d779cecp-1,0x1.df8ed9bcf586fp-2"
            " d=0x0p+0,3,2,0,0"
            " tq=3,0x1.b90f4f08a69a6p+0,0x1p+0,1"
            " rq=2,0x1.fb7c0d438e2ebp+0,0x1p+0,1",
            "v=1 atk=1 lof=0x1.5a57f29a8db4cp+4"
            " z=0x1p+0,0x1.5555555555555p-1,-0x1.920274f5144acp-1,0x1.18ed2e33ad4f2p+0"
            " d=0x1.1999999999998p+0,2,3,2,2"
            " tq=2,0x1.5323a3b7daf4fp+1,0x1p+0,1"
            " rq=3,0x1.c381f686c13fdp+1,0x1p+0,1",
        },
        {
            "v=1 atk=1 lof=0x1.8735d8e8c8cf2p+4"
            " z=0x0p+0,0x0p+0,-0x1.528f89d779cecp-1,0x1.df8ed9bcf586fp-2"
            " d=0x0p+0,3,2,0,0"
            " tq=3,0x1.b90f4f08a69a6p+0,0x1p+0,1"
            " rq=2,0x1.fb7c0d438e2ebp+0,0x1p+0,1",
            "v=1 atk=1 lof=0x1.5a57f29a8db4cp+4"
            " z=0x1p+0,0x1.5555555555555p-1,-0x1.920274f5144acp-1,0x1.18ed2e33ad4f2p+0"
            " d=0x1.1999999999998p+0,2,3,2,2"
            " tq=2,0x1.5323a3b7daf4fp+1,0x1p+0,1"
            " rq=3,0x1.c381f686c13fdp+1,0x1p+0,1",
        },
    },
    {
        {
            "v=1 atk=1 lof=0x1.f39cc47012b01p+3"
            " z=0x1.5555555555555p-2,0x1p+0,0x0p+0,0x1.185cd2cc525f4p+0"
            " d=0x1.333333333332p-2,3,1,1,1"
            " tq=3,0x1.d3eabdb336858p+0,0x1p+0,1"
            " rq=1,0x1.b8e219908460ep+2,0x1.999999999999ap-2,1",
            "v=0 atk=0 lof=0x1.0d4f92a1c18bbp+0"
            " z=0x1p+0,0x1p+0,0x1.bab9834b7c7f2p-1,0x1.03c10ca94512ep-2"
            " d=0x1.999999999998p-2,3,3,3,3"
            " tq=3,0x1.c25018d2cc83cp+0,0x1p+0,1"
            " rq=3,0x1.2acb82f35db42p+1,0x1.d70a3d70a3d71p-1,1",
        },
        {
            "v=2 atk=0 lof=0x0p+0"
            " z=0x0p+0,0x0p+0,0x0p+0,0x0p+0"
            " d=0x0p+0,0,0,0,0"
            " tq=3,0x1.d3eabdb336858p+0,0x1p+0,1"
            " rq=1,0x1.b8e219908460ep+2,0x1.999999999999ap-2,1",
            "v=0 atk=0 lof=0x1.0d4f92a1c18bbp+0"
            " z=0x1p+0,0x1p+0,0x1.bab9834b7c7f2p-1,0x1.03c10ca94512ep-2"
            " d=0x1.999999999998p-2,3,3,3,3"
            " tq=3,0x1.c25018d2cc83cp+0,0x1p+0,1"
            " rq=3,0x1.2acb82f35db42p+1,0x1.d70a3d70a3d71p-1,1",
        },
    },
};

TEST(StreamingGolden, WindowResultsAreFrozen) {
  const Fixture& f = fixture();
  for (std::size_t s = 0; s < f.sessions.size(); ++s) {
    for (const bool abstain : {false, true}) {
      const std::vector<std::string> got =
          stream_windows(f.sessions[s], abstain);
      ASSERT_EQ(got.size(), kWindows) << "session " << s;
      for (std::size_t w = 0; w < kWindows; ++w) {
        std::printf("[%zu][%d][%zu] \"%s\"\n", s, static_cast<int>(abstain),
                    w, got[w].c_str());
        EXPECT_EQ(got[w], kGolden[s][abstain ? 1 : 0][w])
            << "session " << s << " abstain " << abstain << " window " << w;
      }
    }
  }
}

}  // namespace
}  // namespace lumichat::core
