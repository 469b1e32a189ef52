// Scenario campaigns: the four canonical scripted timelines (outdoor
// mobile, mid-call takeover, flaky-webcam storm, reconnect churn) run
// against the live service runtime, each at 1 and 4 worker threads.
//
// Three gates, any failure exits nonzero:
//   * determinism — each campaign's verdict fingerprint (per-window class
//     chars + LOF bit-equality) must be identical across thread counts;
//   * audit-trail integrity — the mined RoundExplanation stream must parse
//     line-for-line, cover exactly the engine's completed windows, and
//     agree with every recorded verdict;
//   * campaign sanity — takeovers are detected (no undetected_takeovers)
//     and the storm campaign's convictions stay confined to storm-overlap
//     rounds without flipping any final vote.
//
// Emits one JSON object per campaign (TAR/TRR, abstains, time-to-detect,
// throughput) to BENCH_scenarios.json.
//
//   ./bench_scenarios                 # scale 1 (the bench-smoke run)
//   ./bench_scenarios 4               # 4x callers per campaign
//   ./bench_scenarios --out path.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/library.hpp"
#include "scenario/miner.hpp"
#include "model/registry.hpp"

namespace {

using namespace lumichat;

core::StreamingConfig campaign_streaming(double window_s) {
  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  core::StreamingConfig streaming_cfg;
  streaming_cfg.detector = profile.detector_config();
  streaming_cfg.detector.enable_abstain = true;
  streaming_cfg.window_s = window_s;
  return streaming_cfg;
}

std::shared_ptr<model::ModelRegistry> train_models(
    const core::StreamingConfig& streaming_cfg, double window_s) {
  eval::SimulationProfile profile;
  profile.clip_duration_s = window_s;
  const eval::DatasetBuilder data(profile);
  const auto pop = eval::make_population();
  common::ThreadPool setup_pool;
  std::printf("[setup] fitting campaign model on 16 legitimate clips "
              "(window %.1fs, %zu threads)...\n",
              window_s, setup_pool.size());
  const auto train_features =
      eval::population_features(data, {&pop[9], 1}, eval::Role::kLegitimate,
                                16, 0.0, &setup_pool);

  auto models = std::make_shared<model::ModelRegistry>();
  models->publish(train_features[0], streaming_cfg.detector.lof_neighbors,
                  streaming_cfg.detector.lof_threshold);
  return models;
}

std::string jsonl_of(const std::vector<obs::RoundExplanation>& records) {
  std::string out;
  for (const obs::RoundExplanation& r : records) {
    out += r.to_json();
    out += '\n';
  }
  return out;
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, value);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scenarios.json";
  std::size_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      scale = std::strtoul(argv[i], nullptr, 10);
      if (scale == 0) scale = 1;
    }
  }

  bench::header("Scenario campaigns: scripted timelines vs the service");

  scenario::LibraryOptions opts;
  opts.scale = scale;
  const core::StreamingConfig streaming = campaign_streaming(opts.window_s);
  const auto models = train_models(streaming, opts.window_s);

  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 8;
  service_cfg.max_sessions = service::default_service_capacity();

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  bench::row("%-20s %-9s %-8s %-8s %-9s %-9s %-9s %-9s", "campaign",
             "windows", "TAR", "TRR", "abstain", "ttd (s)", "frames/s",
             "time (s)");

  std::string json = "[";
  bool first = true;
  for (const scenario::ScenarioSpec& spec :
       scenario::standard_campaigns(opts)) {
    // Reference run: 1 worker thread, explanations collected.
    obs::CollectingExplanationSink sink;
    common::ThreadPool serial(1);
    const scenario::ScenarioReport report =
        scenario::run_scenario(spec, service_cfg, streaming, models, &sink,
                               &serial);
    check(report.error.empty(), spec.name + ": spec validates");
    if (!report.error.empty()) {
      std::fprintf(stderr, "  %s\n", report.error.c_str());
      continue;
    }

    // Thread-count determinism gate: fingerprints and LOF bits must match.
    obs::CollectingExplanationSink sink4;
    common::ThreadPool wide(4);
    const scenario::ScenarioReport report4 = scenario::run_scenario(
        spec, service_cfg, streaming, models, &sink4, &wide);
    bool lof_identical = report.callers.size() == report4.callers.size();
    for (std::size_t c = 0; lof_identical && c < report.callers.size();
         ++c) {
      lof_identical = report.callers[c].lof_scores ==
                      report4.callers[c].lof_scores;
    }
    check(report.verdict_fingerprint() == report4.verdict_fingerprint() &&
              lof_identical,
          spec.name + ": verdicts bit-identical at 1 vs 4 threads");

    // Audit-trail integrity: every line parses, every window is covered,
    // every mined verdict agrees with the live run.
    const scenario::MinedExplanations mined =
        scenario::mine_explanations(jsonl_of(sink.records()));
    const scenario::CampaignSummary campaign =
        scenario::mine_campaign(mined, report);
    check(mined.lines_rejected == 0 && campaign.duplicate_rounds == 0,
          spec.name + ": explanation JSONL parses clean");
    check(campaign.unmatched_rounds == 0 &&
              campaign.verdict_mismatches() == 0,
          spec.name + ": mined trail covers and matches the live run");
    check(campaign.undetected_takeovers() == 0,
          spec.name + ": every scripted takeover detected");
    if (spec.name == "flaky_webcam_storm") {
      // Storm-round false positives are expected (a burst that swallows a
      // whole probe response reads as a missing reflection); the gate is
      // that they stay inside the storm and the vote absorbs them.
      const double storm_from = spec.callers[0].events[0].at_s;
      const double storm_to = spec.callers[0].events[1].at_s;
      bool confined = true;
      bool votes_clean = true;
      for (const scenario::CallerOutcome& c : report.callers) {
        if (c.final_verdict.is_attacker) votes_clean = false;
        for (std::size_t w = 0; w < c.verdicts.size(); ++w) {
          if (c.verdicts[w] != core::Verdict::kAttacker) continue;
          const double end = c.window_end_s[w];
          if (end - spec.window_s >= storm_to || end <= storm_from) {
            confined = false;  // conviction in a storm-free round
          }
        }
      }
      check(confined,
            spec.name + ": convictions confined to storm-overlap rounds");
      check(votes_clean,
            spec.name + ": no caller's final vote flipped to attacker");
    }

    const std::size_t windows = mined.total_rounds();
    const double fps = report.elapsed_s > 0.0
                           ? static_cast<double>(report.frames_fed) /
                                 report.elapsed_s
                           : 0.0;
    bench::row("%-20s %-9zu %-8.2f %-8.2f %-9zu %-9.1f %-9.0f %-9.2f",
               spec.name.c_str(), windows, report.true_accept_rate(),
               report.true_reject_rate(), report.abstained_windows(),
               campaign.worst_time_to_detect_s(), fps, report.elapsed_s);

    if (!first) json += ',';
    first = false;
    char buf[128];
    json += "{\"campaign\":\"" + spec.name + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"callers\":%zu,\"windows\":%zu,\"abstained\":%zu,"
                  "\"reconnect_deferrals\":%zu,",
                  report.callers.size(), windows,
                  report.abstained_windows(), [&report] {
                    std::size_t n = 0;
                    for (const auto& c : report.callers) {
                      n += c.rejoin_deferrals;
                    }
                    return n;
                  }());
    json += buf;
    append_kv(json, "tar", report.true_accept_rate());
    json += ',';
    append_kv(json, "trr", report.true_reject_rate());
    json += ',';
    append_kv(json, "worst_time_to_detect_s",
              campaign.worst_time_to_detect_s());
    json += ",\"mined\":";
    json += campaign.to_json();
    json += '}';
  }
  json += "]";

  check(obs::json_well_formed(json), "emitted BENCH JSON parses");
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n[bench] campaign summaries -> %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr, "\n%d scenario gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall scenario gates passed\n");
  return 0;
}
