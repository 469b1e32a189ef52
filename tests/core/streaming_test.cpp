#include "core/streaming.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "../image/u8_frames.hpp"
#include "describe_result.hpp"
#include "common/rng.hpp"
#include "model/snapshot.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "obs/explain.hpp"

namespace lumichat::core {
namespace {

std::vector<FeatureVector> legit_like(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(FeatureVector{1.0 - rng.uniform(0.0, 0.15),
                                1.0 - rng.uniform(0.0, 0.15),
                                0.9 - rng.uniform(0.0, 0.2),
                                0.2 + rng.uniform(0.0, 0.2)});
  }
  return out;
}

TEST(Streaming, NoVerdictBeforeWindowCompletes) {
  StreamingDetector sd;
  sd.attach_model(
      model::fit_lof_model(sd.config().detector, legit_like(20, 1)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  for (int i = 0; i < 50; ++i) {  // 5 s of a 15 s window
    EXPECT_FALSE(sd.push(static_cast<double>(i) * 0.1, frame, frame));
  }
  EXPECT_EQ(sd.windows_completed(), 0u);
}

TEST(Streaming, EmitsVerdictEveryWindow) {
  StreamingConfig cfg;
  cfg.window_s = 3.0;  // short windows for test speed
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 2)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  std::size_t verdicts = 0;
  for (int i = 0; i < 95; ++i) {  // 9.5 s -> 3 complete windows
    if (sd.push(static_cast<double>(i) * 0.1, frame, frame)) ++verdicts;
  }
  EXPECT_EQ(verdicts, 3u);
  EXPECT_EQ(sd.windows_completed(), 3u);
}

TEST(Streaming, SkipsFramesFasterThanSamplingRate) {
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 3)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  // 30 fps input, 10 Hz sampling: a window needs 2 s regardless.
  std::size_t verdicts = 0;
  for (int i = 0; i < 90; ++i) {  // 3 s at 30 fps
    if (sd.push(static_cast<double>(i) / 30.0, frame, frame)) ++verdicts;
  }
  EXPECT_EQ(verdicts, 1u);
}

TEST(Streaming, ResetWindowDropsPartialData) {
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 4)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  for (int i = 0; i < 15; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  (void)sd.flush();
  // Window restarts: 19 more samples still yield no verdict...
  std::size_t verdicts = 0;
  for (int i = 15; i < 34; ++i) {
    if (sd.push(static_cast<double>(i) * 0.1, frame, frame)) ++verdicts;
  }
  EXPECT_EQ(verdicts, 0u);
  // ...the 20th completes it.
  EXPECT_TRUE(sd.push(3.4, frame, frame).has_value());
}

TEST(Streaming, RunningVerdictAggregatesWindows) {
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 5)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  for (int i = 0; i < 65; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  const VoteOutcome v = sd.running_verdict();
  EXPECT_EQ(v.total_votes, sd.windows_completed());
}

TEST(Streaming, PendingSamplesTracksThePartialWindow) {
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 6)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  EXPECT_EQ(sd.pending_samples(), 0u);
  for (int i = 0; i < 7; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  EXPECT_EQ(sd.pending_samples(), 7u);
  // Completing the window empties the buffer again.
  for (int i = 7; i < 20; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  EXPECT_EQ(sd.pending_samples(), 0u);
  EXPECT_EQ(sd.windows_completed(), 1u);
}

TEST(Streaming, FlushReportsDiscardedEvidence) {
  StreamingConfig cfg;
  cfg.window_s = 2.0;  // 20 samples at the default 10 Hz
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 7)));
  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  for (int i = 0; i < 7; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  const FlushReport report = sd.flush();
  EXPECT_EQ(report.pending_samples, 7u);
  EXPECT_EQ(report.window_samples, 20u);
  EXPECT_NEAR(report.window_fill, 0.35, 1e-12);
  EXPECT_EQ(sd.pending_samples(), 0u);

  // A second flush has nothing left to account for.
  const FlushReport empty = sd.flush();
  EXPECT_EQ(empty.pending_samples, 0u);
  EXPECT_DOUBLE_EQ(empty.window_fill, 0.0);
}

TEST(Streaming, ResetReproducesAFreshDetectorBitExactly) {
  // The service runtime recycles evicted sessions' detectors; reset() must
  // make a recycled instance indistinguishable from a fresh clone. Run one
  // detector through a messy history (partial windows, verdicts, hold-last
  // state), reset it, then feed it and a never-used twin the same stream:
  // every verdict must match to the bit.
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector used(cfg);
  used.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 8)));
  StreamingDetector fresh(cfg);
  fresh.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 8)));

  common::Rng rng(123);
  const image::Image empty_frame;
  for (int i = 0; i < 53; ++i) {  // 2 windows + a dangling partial
    const image::Image tx(8, 8, image::Pixel{rng.uniform(60.0, 180.0),
                                             100.0, 100.0});
    // Occasional empty received frames exercise the hold-last fallback.
    const image::Image& rx = (i % 11 == 0) ? empty_frame : tx;
    (void)used.push(static_cast<double>(i) * 0.1, tx, rx);
  }
  ASSERT_GT(used.windows_completed(), 0u);
  ASSERT_GT(used.pending_samples(), 0u);

  used.reset();
  EXPECT_TRUE(used.is_trained());  // the model survives
  EXPECT_EQ(used.windows_completed(), 0u);
  EXPECT_EQ(used.pending_samples(), 0u);
  EXPECT_EQ(used.running_verdict().total_votes, 0u);

  common::Rng replay(456);
  for (int i = 0; i < 47; ++i) {
    const image::Image tx(8, 8, image::Pixel{replay.uniform(60.0, 180.0),
                                             100.0, 100.0});
    const image::Image& rx = (i % 13 == 0) ? empty_frame : tx;
    const double t = static_cast<double>(i) * 0.1;
    const auto a = used.push(t, tx, rx);
    const auto b = fresh.push(t, tx, rx);
    ASSERT_EQ(a.has_value(), b.has_value()) << "frame " << i;
    if (a.has_value()) {
      EXPECT_EQ(a->is_attacker, b->is_attacker) << "frame " << i;
      EXPECT_EQ(a->lof_score, b->lof_score) << "frame " << i;  // bit-exact
    }
  }
  EXPECT_EQ(used.windows_completed(), fresh.windows_completed());
  EXPECT_EQ(used.pending_samples(), fresh.pending_samples());
}

TEST(Streaming, ResetClearsStreamIdAndRestartsExplanationRounds) {
  // Freelist hygiene for the scenario engine: a recycled detector must not
  // leak the previous session's identity into the audit trail. After
  // reset(), the stream id is cleared and round numbering restarts at 0 —
  // the (stream, round) key the explanation miner dedups on.
  StreamingConfig cfg;
  cfg.window_s = 2.0;
  StreamingDetector sd(cfg);
  sd.attach_model(model::fit_lof_model(cfg.detector, legit_like(20, 9)));
  obs::CollectingExplanationSink sink;
  sd.set_explanation_sink(&sink);
  sd.set_stream_id(7);

  const image::Image frame(8, 8, image::Pixel{100, 100, 100});
  for (int i = 0; i < 20; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.records()[0].stream_id, 7u);
  EXPECT_EQ(sink.records()[0].round_index, 0u);

  sd.reset();
  EXPECT_EQ(sd.stream_id(), 0u);  // no identity leaks to the next session
  sd.set_stream_id(9);
  for (int i = 0; i < 20; ++i) {
    (void)sd.push(static_cast<double>(i) * 0.1, frame, frame);
  }
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.records()[1].stream_id, 9u);
  EXPECT_EQ(sink.records()[1].round_index, 0u);  // restarted, not resumed
}

TEST(Streaming, MatchesBatchDetectorOnSimulatedSession) {
  // Feeding a simulated session frame by frame must reproduce the batch
  // detector's result on the same trace bit for bit: both run the same
  // received-sample rule and the same window step. The two completeness
  // formulas (batch 1 - failed/n, streaming hits/n) can differ by one ulp
  // for some hit counts; on these traces they agree.
  eval::SimulationProfile profile;
  eval::DatasetBuilder data(profile);
  const auto pop = eval::make_population();
  const auto train = data.features(pop[9], eval::Role::kLegitimate, 12);
  const auto snapshot = model::fit_lof_model(profile.detector_config(), train);

  const std::vector<chat::SessionTrace> traces = {
      data.legit_trace(pop[0], 5), data.attacker_trace(pop[0], 5)};
  for (const bool abstain : {false, true}) {
    StreamingConfig cfg;
    cfg.detector = profile.detector_config();
    cfg.detector.enable_abstain = abstain;
    cfg.window_s = profile.clip_duration_s;
    Detector batch(cfg.detector);
    batch.attach_model(snapshot);
    batch.set_explanation_sink(nullptr);

    for (std::size_t k = 0; k < traces.size(); ++k) {
      const chat::SessionTrace& trace = traces[k];
      StreamingDetector streaming(cfg);
      streaming.attach_model(snapshot);
      streaming.set_explanation_sink(nullptr);
      std::optional<DetectionResult> streamed;
      for (std::size_t i = 0; i < trace.transmitted.size(); ++i) {
        const double t = static_cast<double>(i) / profile.sample_rate_hz;
        auto r = streaming.push(t, trace.transmitted.frames[i],
                                trace.received.frames[i]);
        if (r) streamed = r;
      }
      ASSERT_TRUE(streamed.has_value()) << "trace " << k;
      const DetectionResult batched = batch.detect(trace);
      const auto where = ::testing::Message()
                         << "trace " << k << " abstain " << abstain;
      EXPECT_EQ(streamed->verdict, batched.verdict) << where;
      EXPECT_EQ(streamed->is_attacker, batched.is_attacker) << where;
      EXPECT_EQ(streamed->lof_score, batched.lof_score) << where;
      EXPECT_EQ(streamed->features.z1, batched.features.z1) << where;
      EXPECT_EQ(streamed->features.z2, batched.features.z2) << where;
      EXPECT_EQ(streamed->features.z3, batched.features.z3) << where;
      EXPECT_EQ(streamed->features.z4, batched.features.z4) << where;
      for (const auto& [s, b] :
           {std::pair{streamed->transmitted_quality,
                      batched.transmitted_quality},
            std::pair{streamed->received_quality, batched.received_quality}}) {
        EXPECT_EQ(s.change_events, b.change_events) << where;
        EXPECT_EQ(s.snr_proxy, b.snr_proxy) << where;
        EXPECT_EQ(s.window_completeness, b.window_completeness) << where;
        EXPECT_EQ(s.all_finite, b.all_finite) << where;
      }
    }
  }
}

TEST(Streaming, EightBitPairsMatchWidenedPairsBitExactly) {
  // Full simulated chats rounded to 8 bits, as a camera emits them and the
  // wire's u8 planes carry them, pushed once as ImageU8 pairs and once
  // widened to f64: every window's result is the same, bit for bit. The
  // received side loses its first 4 s and a later run of frames, so the
  // hold-last path (no frame, or no face) is covered too.
  using image::testutil::to_u8;
  using image::testutil::widen;
  using testutil::describe;
  eval::SimulationProfile profile;
  const auto pop = eval::make_population(2);
  const eval::DatasetBuilder train_data(profile);
  const auto snapshot = model::fit_lof_model(
      profile.detector_config(),
      train_data.features(pop[1], eval::Role::kLegitimate, 8));
  eval::SimulationProfile long_profile = profile;
  long_profile.clip_duration_s = 2.0 * profile.clip_duration_s;
  const eval::DatasetBuilder data(long_profile);

  for (const chat::SessionTrace& trace :
       {data.legit_trace(pop[0], 3), data.attacker_trace(pop[0], 3)}) {
    StreamingConfig cfg;
    cfg.detector = profile.detector_config();
    cfg.detector.enable_abstain = true;
    cfg.window_s = profile.clip_duration_s;
    StreamingDetector narrow(cfg);
    StreamingDetector wide(cfg);
    for (StreamingDetector* sd : {&narrow, &wide}) {
      sd->attach_model(snapshot);
      sd->set_explanation_sink(nullptr);
    }
    std::size_t windows = 0;
    for (std::size_t i = 0; i < trace.transmitted.size(); ++i) {
      const double t = static_cast<double>(i) / profile.sample_rate_hz;
      const bool lost = i < 40 || (i >= 200 && i < 212);
      const image::ImageU8 tx = to_u8(trace.transmitted.frames[i]);
      const image::ImageU8 rx =
          lost ? image::ImageU8{} : to_u8(trace.received.frames[i]);
      const auto a = narrow.push(t, tx, rx);
      const auto b = wide.push(t, widen(tx), widen(rx));
      ASSERT_EQ(a.has_value(), b.has_value()) << "frame " << i;
      if (!a) continue;
      ++windows;
      EXPECT_EQ(describe(*a), describe(*b)) << "window " << windows;
    }
    EXPECT_EQ(windows, 2u);
    EXPECT_EQ(narrow.running_verdict().is_attacker,
              wide.running_verdict().is_attacker);
  }
}

TEST(Streaming, RejectsDegenerateWindows) {
  // A window must hold at least one sample and fit in a buffer; the
  // sampling rate must be finite and positive.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double window_s : {0.0, -1.0, nan, 1e300, 0.04}) {
    StreamingConfig cfg;
    cfg.window_s = window_s;
    EXPECT_THROW(StreamingDetector{cfg}, std::invalid_argument)
        << "window_s " << window_s;
  }
  for (const double rate : {0.0, -1.0, nan, inf}) {
    StreamingConfig cfg;
    cfg.detector.sample_rate_hz = rate;
    EXPECT_THROW(StreamingDetector{cfg}, std::invalid_argument)
        << "rate " << rate;
  }
  // Half a sample rounds up to a one-sample window.
  StreamingConfig one;
  one.window_s = 0.05;
  StreamingDetector sd(one);
  EXPECT_EQ(sd.flush().window_samples, 1u);
}

TEST(Streaming, RejectsBrokenFilterDesignAtConstruction) {
  // A filter design the detector cannot run fails at construction, not 15 s
  // into the stream when the first window closes.
  StreamingConfig at_nyquist;
  at_nyquist.detector.lowpass_cutoff_hz = 5.0;
  EXPECT_THROW(StreamingDetector{at_nyquist}, std::invalid_argument);
  StreamingConfig slow;
  slow.detector.sample_rate_hz = 1.5;  // the 1 Hz cut-off is above Nyquist
  EXPECT_THROW(StreamingDetector{slow}, std::invalid_argument);
}

}  // namespace
}  // namespace lumichat::core
