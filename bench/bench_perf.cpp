// Sec. IX computation-overhead micro-benchmarks (google-benchmark).
//
// The paper's claim: feature extraction + classification for one 15-second
// clip complete "within 0.2 seconds" even in a naive Matlab/Python
// implementation, and landmark detection runs at hundreds of fps — i.e. the
// defense is cheap enough for phones. These benchmarks measure our C++
// implementation of each stage. BM_StdNormalFill, BM_CameraCapture96x72,
// BM_CodecTranscode96x72 and BM_ChatTick time the chat simulator that
// produces the frames (bench/BENCH_render.json).
//
//   ./bench_perf --simd-json BENCH_simd.json  # scalar-vs-AVX2 per-kernel
//                                             # timings + bit-equality gate
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "chat/codec.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/luminance_extractor.hpp"
#include "core/preprocess.hpp"
#include "core/streaming.hpp"
#include "eval/dataset.hpp"
#include "eval/population.hpp"
#include "face/landmark_detector.hpp"
#include "face/renderer.hpp"
#include "image/luminance.hpp"
#include "optics/camera.hpp"
#include "model/snapshot.hpp"
#include "signal/dtw.hpp"
#include "signal/stats.hpp"
#include "service/load_generator.hpp"
#include "simd/dispatch.hpp"
#include "wire/protocol.hpp"

namespace {

using namespace lumichat;

// Shared expensive fixtures, built once.
struct Fixtures {
  eval::SimulationProfile profile;
  eval::DatasetBuilder data{profile};
  chat::SessionTrace trace;
  core::LuminanceExtractor extractor{profile.detector_config()};
  core::Preprocessor pre{profile.detector_config()};
  core::FeatureExtractor fx{profile.detector_config()};
  core::Detector detector{profile.detector_config()};
  signal::Signal t_raw;
  signal::Signal r_raw;
  core::PreprocessResult t_pre;
  core::PreprocessResult r_pre;
  core::FeatureVector feature;
  image::Image face_frame;
  // The first 75 samples of both normalised trends: one half-window DTW
  // (z4 compares the two 7.5 s halves of a 15 s window).
  signal::Signal dtw_t;
  signal::Signal dtw_r;

  Fixtures() {
    const auto pop = eval::make_population();
    trace = data.legit_trace(pop[0], 0);
    t_raw = extractor.transmitted_signal(trace.transmitted);
    r_raw = extractor.received_signal(trace.received).luminance;
    t_pre = pre.process_transmitted(t_raw);
    r_pre = pre.process_received(r_raw);
    feature = fx.extract(t_pre, r_pre).features;
    detector.attach_model(model::fit_lof_model(detector.config(), 
        data.features(pop[9], eval::Role::kLegitimate, 20)));
    face_frame = trace.received.frames[50];
    dtw_t = signal::normalize01(signal::Signal(
        t_pre.smoothed_variance.begin(), t_pre.smoothed_variance.begin() + 75));
    dtw_r = signal::normalize01(signal::Signal(
        r_pre.smoothed_variance.begin(), r_pre.smoothed_variance.begin() + 75));
  }
};

Fixtures& fixtures() {
  static Fixtures f;
  return f;
}

void BM_LandmarkDetectionPerFrame(benchmark::State& state) {
  Fixtures& f = fixtures();
  const face::LandmarkDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.detect(f.face_frame));
  }
}
BENCHMARK(BM_LandmarkDetectionPerFrame);

/// One intra-window StreamingDetector::push of a rendered 96x72 pair
/// rounded to 8 bits: `eight_bit` pushes the ImageU8 planes the wire
/// delivers, otherwise the same values widened to f64 Images. The window
/// is flushed one sample before it would complete, so no push runs the
/// window step.
void BM_StreamingPush96x72(benchmark::State& state, bool eight_bit) {
  Fixtures& f = fixtures();
  image::ImageU8 tx_u8(96, 72);
  image::ImageU8 rx_u8(96, 72);
  image::Image tx(96, 72);
  image::Image rx(96, 72);
  for (const auto& [from, u8, f64] :
       {std::tuple{&f.trace.transmitted.frames[50], &tx_u8, &tx},
        std::tuple{&f.trace.received.frames[50], &rx_u8, &rx}}) {
    if (from->width() != 96 || from->height() != 72) {
      state.SkipWithError("fixture frames are not 96x72");
      return;
    }
    const auto* in = reinterpret_cast<const double*>(from->data());
    auto* out = reinterpret_cast<double*>(f64->data());
    for (std::size_t i = 0; i < u8->size_bytes(); ++i) {
      u8->data()[i] =
          static_cast<std::uint8_t>(std::clamp(in[i], 0.0, 255.0) + 0.5);
      out[i] = u8->data()[i];
    }
  }
  core::StreamingConfig cfg;
  cfg.detector = f.profile.detector_config();
  core::StreamingDetector sd(cfg);
  sd.set_explanation_sink(nullptr);
  const double dt = 1.0 / cfg.detector.sample_rate_hz;
  double t = 0.0;
  for (auto _ : state) {
    const auto r = eight_bit ? sd.push(t, tx_u8, rx_u8) : sd.push(t, tx, rx);
    benchmark::DoNotOptimize(r);
    t += dt;
    if (sd.pending_samples() + 1 >= static_cast<std::size_t>(
                                        std::llround(cfg.window_s / dt))) {
      (void)sd.flush();
    }
  }
}
BENCHMARK_CAPTURE(BM_StreamingPush96x72, f64, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_StreamingPush96x72, u8, true)
    ->Unit(benchmark::kMicrosecond);

void BM_LuminanceExtraction15sClip(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.extractor.received_signal(f.trace.received));
  }
}
BENCHMARK(BM_LuminanceExtraction15sClip);

void BM_Preprocess15sSignal(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.pre.process_received(f.r_raw));
  }
}
BENCHMARK(BM_Preprocess15sSignal);

void BM_FeatureExtraction(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.fx.extract(f.t_pre, f.r_pre));
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_Dtw75x75(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::dtw_distance(f.dtw_t, f.dtw_r));
  }
}
BENCHMARK(BM_Dtw75x75);

void BM_LofClassification(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.classify(f.feature));
  }
}
BENCHMARK(BM_LofClassification);

// The window step a live session runs when a window closes
// (Detector::detect_window on raw T and R): both preprocesses, the
// signal-quality check, the features and LOF.
void BM_DetectWindow15s(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect_window(f.t_raw, f.r_raw, 1.0));
  }
}
BENCHMARK(BM_DetectWindow15s);

// The Sec. IX headline: everything after video capture, for one 15 s clip.
void BM_DetectFull15sClip(benchmark::State& state) {
  Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect(f.trace));
  }
}
BENCHMARK(BM_DetectFull15sClip)->Unit(benchmark::kMillisecond);

void BM_LofTraining20Instances(benchmark::State& state) {
  Fixtures& f = fixtures();
  const auto train = f.data.features(eval::make_population()[9],
                                     eval::Role::kLegitimate, 20);
  for (auto _ : state) {
    core::Detector det(f.profile.detector_config());
    det.attach_model(model::fit_lof_model(det.config(), train));
    benchmark::DoNotOptimize(det);
  }
}
BENCHMARK(BM_LofTraining20Instances);

// --- Chat-simulator render cost ---------------------------------------------
//
// The simulator, not the defense, dominates every end-to-end run that renders
// chats (paperbench paper_eval set-up, the service load benches). These time
// its hot path bottom-up on one 96x72 frame: the standard-normal fill behind
// camera noise (20,736 draws), one camera capture, one codec transcode, and
// one full chat tick (two captures and two transcodes plus rendering).
// bench/BENCH_render.json records them before and after the batched fill and
// the develop/codec kernels.

constexpr std::size_t kFrameValues = 96 * 72 * 3;

void BM_StdNormalFill(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<double> out(kFrameValues);
  for (auto _ : state) {
    rng.std_normal_fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StdNormalFill)->Unit(benchmark::kMicrosecond);

/// A radiometric 96x72 scene with per-pixel texture (what a camera meters
/// and develops) and two 8-bit frames of different mean (so the codec's
/// rate-control noise path runs on every transcode).
struct RenderFixtures {
  image::Image scene{96, 72};
  image::Image frames[2] = {image::Image{96, 72}, image::Image{96, 72}};

  RenderFixtures() {
    for (std::size_t y = 0; y < 72; ++y) {
      for (std::size_t x = 0; x < 96; ++x) {
        const double t = static_cast<double>((x * 7 + y * 13) % 29) / 29.0;
        scene(x, y) = {0.2 + 0.5 * t, 0.3 + 0.4 * t, 0.25 + 0.3 * t};
        frames[0](x, y) = {60.0 + 120.0 * t, 70.0 + 100.0 * t, 50.0 + 90.0 * t};
        frames[1](x, y) = {80.0 + 120.0 * t, 90.0 + 100.0 * t, 70.0 + 90.0 * t};
      }
    }
  }
};

RenderFixtures& render_fixtures() {
  static RenderFixtures f;
  return f;
}

void BM_CameraCapture96x72(benchmark::State& state) {
  const RenderFixtures& f = render_fixtures();
  optics::CameraModel camera(optics::CameraSpec{}, 7);
  for (auto _ : state) {
    image::Image out = camera.capture(f.scene);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CameraCapture96x72)->Unit(benchmark::kMicrosecond);

void BM_CodecTranscode96x72(benchmark::State& state) {
  const RenderFixtures& f = render_fixtures();
  chat::VideoCodec codec(chat::CodecSpec{.compression = 0.25}, 7);
  std::size_t k = 0;
  for (auto _ : state) {
    image::Image out = codec.transcode(f.frames[k++ & 1]);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CodecTranscode96x72)->Unit(benchmark::kMicrosecond);

void BM_ChatTick(benchmark::State& state) {
  const service::LoadSpec spec;  // full chat, 96x72, default codec
  auto source = service::make_chat_source(spec, 0, /*attacker=*/false);
  (void)source->next();  // the first call also runs the warm-up
  for (auto _ : state) {
    chat::FramePair pair = source->next();
    benchmark::DoNotOptimize(pair.received.data());
  }
}
BENCHMARK(BM_ChatTick)->Unit(benchmark::kMicrosecond);

/// One 96x72 frame pair across the wire format: encode_frame, then
/// decode_message + parse_frame + frame_pixels_to_bytes into reused planes
/// (the server's pooled-job path). The render fixtures' frames are rounded
/// to 8 bits first, as the load generator ships them.
void BM_WireFrameRoundTrip96x72(benchmark::State& state) {
  const RenderFixtures& f = render_fixtures();
  image::Image tx = f.frames[0];
  image::Image rx = f.frames[1];
  for (image::Image* img : {&tx, &rx}) {
    auto* v = reinterpret_cast<double*>(img->data());
    for (std::size_t i = 0; i < img->pixels().size() * 3; ++i) {
      v[i] = static_cast<double>(
          static_cast<std::uint8_t>(std::clamp(v[i], 0.0, 255.0) + 0.5));
    }
  }
  std::vector<std::uint8_t> buf(wire::frame_wire_size(96, 72));
  image::ImageU8 tx2(96, 72);
  image::ImageU8 rx2(96, 72);
  std::size_t n = 0;
  for (auto _ : state) {
    n = wire::encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, tx, rx);
    wire::MessageView view;
    wire::FrameMsg frame;
    if (wire::decode_message(buf.data(), n, &view) != wire::DecodeStatus::kOk ||
        !wire::parse_frame(view, &frame)) {
      state.SkipWithError("frame did not round-trip");
      return;
    }
    wire::frame_pixels_to_bytes(frame, &tx2, &rx2);
    benchmark::DoNotOptimize(tx2.data());
    benchmark::DoNotOptimize(rx2.data());
    benchmark::ClobberMemory();
  }
  state.counters["wire_bytes"] = static_cast<double>(n);
}
BENCHMARK(BM_WireFrameRoundTrip96x72)
    ->Name("BM_WireFrameRoundTrip96x72/u8")
    ->Unit(benchmark::kMicrosecond);

// --- SIMD kernel before/after ----------------------------------------------
//
// Per-kernel scalar-vs-AVX2 timings over hot-path-realistic sizes. Two
// consumers:
//  * `--benchmark_filter=BM_Simd` — google-benchmark entries, one per
//    (kernel, ISA), registered dynamically for every table the machine has;
//  * `--simd-json PATH` — a self-contained mode that first gates scalar and
//    AVX2 outputs BIT-identical on every workload (exits nonzero on any
//    mismatch), then writes per-kernel scalar_ns / avx2_ns / speedup JSON.
//    bench/BENCH_simd.json is a checked-in run of this mode.

/// One benchmarkable kernel invocation: writes its full output (reductions
/// write one element) into `out` so the equality gate can compare tables.
struct SimdWorkload {
  const char* name;
  std::size_t out_len;
  std::function<void(const simd::Kernels&, double* out)> run;
};

struct SimdData {
  std::vector<double> sig_a;
  std::vector<double> sig_b;
  std::vector<double> taps;
  std::vector<double> rgb;
  std::vector<double> soa[4];
  double q[4];
  // One full-size wire Frame message: 24-byte header + fixed fields + two
  // 96x72 8-bit RGB planes, the span the server checksums per frame.
  std::vector<std::uint8_t> frame_msg;
  // Chat-simulator inputs at frame size: a seeded engine and room for the
  // 20,736 words it yields per frame, 20,736 engine words (10,368 polar
  // candidates), a radiometric 96x72 plane with its noise draws
  // (camera develop), and an 8-bit plane with per-value block DC and noise
  // (codec blend-quantize).
  std::mt19937_64 engine{7};
  std::vector<std::uint64_t> word_out = std::vector<std::uint64_t>(kFrameValues);
  std::vector<std::uint64_t> words;
  std::vector<double> scene_rgb;
  std::vector<double> noise_z;
  std::vector<double> plane_8bit;
  std::vector<double> block_dc;
  std::vector<double> block_noise;
  image::Image frame{64, 64};
  // Fractional nasal-ROI-sized region: exercises boundary columns plus a
  // ~52-pixel dispatched interior run per row.
  image::RectF roi{3.4, 2.6, 52.8, 44.3};

  SimdData() {
    // Sizes chosen from the hot path: ~1k pixels is one nasal-ROI scan,
    // 4096 samples is hundreds of seconds of 25 Hz luminance signal, 1024
    // points is a large per-user LOF training set. The pixel/point sets are
    // deliberately L1-resident — per-frame work touches them while hot, so
    // timing them through L2 would understate the kernels.
    const std::size_t n = 4096;
    const std::size_t npix = 1024;
    const std::size_t npts = 1024;
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    sig_a.resize(n);
    sig_b.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sig_a[i] = 100.0 + 10.0 * next();
      sig_b[i] = 100.0 + 10.0 * next();
    }
    taps.resize(21);
    for (double& t : taps) t = next() - 0.5;
    rgb.resize(npix * 3);
    for (double& v : rgb) v = 255.0 * next();
    for (std::size_t y = 0; y < frame.height(); ++y) {
      for (std::size_t x = 0; x < frame.width(); ++x) {
        frame(x, y) = {255.0 * next(), 255.0 * next(), 255.0 * next()};
      }
    }
    for (auto& axis : soa) {
      axis.resize(npts);
      for (double& v : axis) v = next();
    }
    for (double& v : q) v = next();
    frame_msg.resize(wire::frame_wire_size(96, 72));
    for (auto& b : frame_msg) b = static_cast<std::uint8_t>(256.0 * next());
    words.resize(kFrameValues);
    for (auto& w : words) {
      (void)next();
      w = s;
    }
    scene_rgb.resize(kFrameValues);
    noise_z.resize(kFrameValues);
    plane_8bit.resize(kFrameValues);
    block_dc.resize(kFrameValues);
    block_noise.resize(kFrameValues);
    for (std::size_t i = 0; i < kFrameValues; ++i) {
      scene_rgb[i] = next();
      noise_z[i] = 6.0 * next() - 3.0;
      plane_8bit[i] = 255.0 * next();
      block_dc[i] = 255.0 * next();
      block_noise[i] = 4.0 * next() - 2.0;
    }
  }
};

SimdData& simd_data() {
  static SimdData d;
  return d;
}

std::vector<SimdWorkload> simd_workloads() {
  SimdData& d = simd_data();
  const std::size_t n = d.sig_a.size();
  const std::size_t npix = d.rgb.size() / 3;
  return {
      {"sum", 1,
       [&d, n](const simd::Kernels& k, double* out) {
         out[0] = k.sum(d.sig_a.data(), n);
       }},
      {"pearson_accumulate", 3,
       [&d, n](const simd::Kernels& k, double* out) {
         const simd::PearsonSums s =
             k.pearson_accumulate(d.sig_a.data(), d.sig_b.data(), n, 100.0,
                                  100.0);
         out[0] = s.sxy;
         out[1] = s.sxx;
         out[2] = s.syy;
       }},
      {"convolve_same_21tap", n,
       [&d, n](const simd::Kernels& k, double* out) {
         k.convolve_same(d.sig_a.data(), n, d.taps.data(), d.taps.size(), out);
       }},
      {"luminance_row_sum", 1,
       [&d, npix](const simd::Kernels& k, double* out) {
         out[0] = k.luminance_row_sum(d.rgb.data(), npix, 0.2126, 0.7152,
                                      0.0722);
       }},
      {"roi_luminance_frac", 1,
       [&d](const simd::Kernels& k, double* out) {
         out[0] = image::roi_luminance(d.frame, d.roi, k);
       }},
      // One half-window DTW (75 samples per side) of the z4 feature.
      {"dtw_75x75", 1,
       [&d](const simd::Kernels& k, double* out) {
         out[0] = k.dtw(d.sig_a.data(), 75, d.sig_b.data(), 75);
       }},
      {"squared_dist4_batch", d.soa[0].size(),
       [&d](const simd::Kernels& k, double* out) {
         k.squared_dist4_batch(d.soa[0].data(), d.soa[1].data(),
                               d.soa[2].data(), d.soa[3].data(),
                               d.soa[0].size(), d.q, out);
       }},
      // Outputs: the words, bit for bit, from a fresh copy of one seeded
      // engine per call (the 2.5 KB copy is part of the timing).
      {"engine_words", kFrameValues,
       [&d](const simd::Kernels& k, double* out) {
         std::mt19937_64 engine = d.engine;
         k.engine_words(engine, d.word_out.data(), kFrameValues);
         std::memcpy(out, d.word_out.data(), kFrameValues * sizeof(double));
       }},
      // Outputs: the accepted count, then the compacted x, y, r2 arrays.
      // Slots past the count are scratch, so they are zeroed for the gate.
      {"polar_candidates", 1 + 3 * kFrameValues / 2,
       [&d](const simd::Kernels& k, double* out) {
         const std::size_t m = kFrameValues / 2;
         const std::size_t got = k.polar_candidates(
             d.words.data(), m, out + 1, out + 1 + m, out + 1 + 2 * m);
         out[0] = static_cast<double>(got);
         for (std::size_t a = 0; a < 3; ++a) {
           std::fill(out + 1 + a * m + got, out + 1 + (a + 1) * m, 0.0);
         }
       }},
      {"camera_develop_96x72", kFrameValues,
       [&d](const simd::Kernels& k, double* out) {
         simd::CameraDevelop p;
         p.wb[0] = 1.02;
         p.wb[1] = 1.0;
         p.wb[2] = 0.97;
         p.gain = 310.0;
         p.read_var = 1.0;
         p.shot_var = 0.06 * 0.06;
         k.camera_develop(d.scene_rgb.data(), d.noise_z.data(),
                          kFrameValues / 3, p, out);
       }},
      {"codec_blend_quantize_96x72", kFrameValues,
       [&d](const simd::Kernels& k, double* out) {
         simd::CodecBlend p;
         p.keep = 1.0 - 0.6 * 0.3;
         p.mix = 0.6 * 0.3;
         p.q = 6.0 * 0.3;
         k.codec_blend_quantize(d.plane_8bit.data(), d.block_dc.data(),
                                d.block_noise.data(), kFrameValues, p, out);
       }},
      // The CRC is an integer; it fits a double exactly, so the
      // bit-equality gate compares it like any other output.
      {"crc32_update", 1,
       [&d](const simd::Kernels& k, double* out) {
         out[0] = k.crc32_update(0xFFFFFFFFu, d.frame_msg.data(),
                                 d.frame_msg.size());
       }},
  };
}

void register_simd_benchmarks() {
  const simd::Kernels* tables[2] = {&simd::scalar_kernels(),
                                    simd::avx2_kernels()};
  for (const simd::Kernels* table : tables) {
    if (table == nullptr) continue;
    for (const SimdWorkload& w : simd_workloads()) {
      const std::string name =
          std::string("BM_Simd_") + w.name + "/" + table->name;
      benchmark::RegisterBenchmark(
          name.c_str(), [table, w](benchmark::State& state) {
            std::vector<double> out(w.out_len, 0.0);
            for (auto _ : state) {
              w.run(*table, out.data());
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
          });
    }
  }
}

/// Best-of-repeats ns/call for one workload on one kernel table.
double time_simd_ns(const SimdWorkload& w, const simd::Kernels& table) {
  std::vector<double> out(w.out_len, 0.0);
  auto run_batch = [&](std::size_t iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      w.run(table, out.data());
      benchmark::DoNotOptimize(out.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  // Calibrate to ~5 ms per batch, then take the best of 5 batches (least
  // noise on a shared machine).
  std::size_t iters = 8;
  while (run_batch(iters) < 5e6 && iters < (1u << 24)) iters *= 2;
  double best = run_batch(iters);
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, run_batch(iters));
  return best / static_cast<double>(iters);
}

/// --simd-json driver: equality gate + timing report. Returns the process
/// exit code.
int run_simd_json(const std::string& path) {
  const simd::Kernels& scalar = simd::scalar_kernels();
  const simd::Kernels* avx2 = simd::avx2_kernels();
  std::string json = "{\n  \"avx2_available\": ";
  json += (avx2 != nullptr) ? "true" : "false";
  json += ",\n  \"kernels\": {\n";
  bool ok = true;
  bool first = true;
  for (const SimdWorkload& w : simd_workloads()) {
    std::vector<double> out_s(w.out_len, 0.0);
    w.run(scalar, out_s.data());
    if (avx2 != nullptr) {
      std::vector<double> out_v(w.out_len, 7.0);
      w.run(*avx2, out_v.data());
      for (std::size_t i = 0; i < w.out_len; ++i) {
        if (std::bit_cast<std::uint64_t>(out_s[i]) !=
            std::bit_cast<std::uint64_t>(out_v[i])) {
          std::fprintf(stderr,
                       "[simd] BIT MISMATCH kernel=%s index=%zu "
                       "scalar=%.17g avx2=%.17g\n",
                       w.name, i, out_s[i], out_v[i]);
          ok = false;
          break;
        }
      }
    }
    // "speedup" is the scalar table over the AVX2 table: the
    // hand-vectorization alone. The scalar table already carries the widened
    // multi-accumulator reduction, so without FMA (banned by the
    // bit-equality contract) reductions are port-capped at 4.0x on 4-wide
    // doubles. The pre-SIMD loops' timings are frozen in BENCH_simd.json.
    const double ns_s = time_simd_ns(w, scalar);
    const double ns_v = (avx2 != nullptr) ? time_simd_ns(w, *avx2) : 0.0;
    char buf[320];
    if (avx2 != nullptr) {
      std::snprintf(buf, sizeof buf,
                    "    \"%s\": {\"scalar_ns\": %.1f, \"avx2_ns\": %.1f, "
                    "\"speedup\": %.2f}",
                    w.name, ns_s, ns_v, ns_s / ns_v);
      std::fprintf(stderr, "[simd] %-26s scalar %10.1f ns  avx2 %10.1f ns  "
                   "speedup %5.2fx\n", w.name, ns_s, ns_v, ns_s / ns_v);
    } else {
      std::snprintf(buf, sizeof buf, "    \"%s\": {\"scalar_ns\": %.1f}",
                    w.name, ns_s);
      std::fprintf(stderr, "[simd] %-26s scalar %10.1f ns (no AVX2)\n",
                   w.name, ns_s);
    }
    if (!first) json += ",\n";
    json += buf;
    first = false;
  }
  json += "\n  }\n}\n";
  if (!ok) {
    std::fprintf(stderr, "[simd] bit-equality gate FAILED; no JSON written\n");
    return 1;
  }
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[simd] wrote %s\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

}  // namespace

// Custom main (instead of benchmark::benchmark_main) for the standalone
// --simd-json mode, which skips the google-benchmark suite.
int main(int argc, char** argv) {
  std::string simd_json;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simd-json") == 0 && i + 1 < argc) {
      simd_json = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // Standalone mode: equality-gate and time the SIMD kernel tables, write
  // the per-kernel JSON, and skip the google-benchmark suite entirely.
  if (!simd_json.empty()) return run_simd_json(simd_json);

  register_simd_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
