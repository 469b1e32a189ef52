#include "core/detector.hpp"

namespace lumichat::core {

Detector::Detector(DetectorConfig config)
    : config_(config), extractor_(config), preprocessor_(config),
      features_(config), lof_(config.lof_neighbors, config.lof_threshold),
      explain_(obs::default_explanation_sink()) {}

FeatureExtraction Detector::featurize(const chat::SessionTrace& trace) const {
  const signal::Signal t_raw = extractor_.transmitted_signal(trace.transmitted);
  const ReceivedExtraction r_raw = extractor_.received_signal(trace.received);
  const PreprocessResult t_pre = preprocessor_.process_transmitted(t_raw);
  const PreprocessResult r_pre = preprocessor_.process_received(r_raw.luminance);
  return features_.extract(t_pre, r_pre);
}

void Detector::attach_model(
    std::shared_ptr<const model::LofModelSnapshot> snapshot) {
  lof_.attach(std::move(snapshot));
  // Keep the visible configuration coherent with the model actually scoring.
  config_.lof_neighbors = lof_.k();
  config_.lof_threshold = lof_.tau();
}

DetectionResult Detector::detect_impl(const chat::SessionTrace& trace) const {
  const signal::Signal t_raw = extractor_.transmitted_signal(trace.transmitted);
  const ReceivedExtraction r_raw = extractor_.received_signal(trace.received);
  const double r_completeness =
      r_raw.luminance.empty()
          ? 0.0
          : 1.0 - static_cast<double>(r_raw.failed_frames) /
                      static_cast<double>(r_raw.luminance.size());
  return detect_window(t_raw, r_raw.luminance, r_completeness);
}

DetectionResult Detector::detect_window(const signal::Signal& transmitted,
                                        const signal::Signal& received,
                                        double received_completeness) const {
  const PreprocessResult t_pre = preprocessor_.process_transmitted(transmitted);
  const PreprocessResult r_pre = preprocessor_.process_received(received);
  const SignalQuality t_quality = assess_signal_quality(t_pre, 1.0);
  const SignalQuality r_quality =
      assess_signal_quality(r_pre, received_completeness);

  if (config_.enable_abstain &&
      quality_insufficient(t_quality, r_quality, config_)) {
    DetectionResult r;
    r.verdict = Verdict::kAbstain;
    r.transmitted_quality = t_quality;
    r.received_quality = r_quality;
    return r;
  }

  const FeatureExtraction fx = features_.extract(t_pre, r_pre);
  DetectionResult r = classify(fx.features);
  r.diagnostics = fx.diagnostics;
  r.transmitted_quality = t_quality;
  r.received_quality = r_quality;
  return r;
}

DetectionResult Detector::detect(const chat::SessionTrace& trace) const {
  DetectionResult r = detect_impl(trace);
  if (explain_ != nullptr) explain_->emit(explain(r));
  return r;
}

DetectionResult Detector::classify(const FeatureVector& z) const {
  DetectionResult r;
  r.features = z;
  r.lof_score = lof_.score(z);
  r.is_attacker = r.lof_score > lof_.tau();
  r.verdict = r.is_attacker ? Verdict::kAttacker : Verdict::kLegitimate;
  return r;
}

std::vector<DetectionResult> Detector::detect_batch(
    const std::vector<chat::SessionTrace>& traces,
    common::ThreadPool* pool) const {
  std::vector<DetectionResult> results(traces.size());
  common::for_each_index(pool, traces.size(), [&](std::size_t i) {
    results[i] = detect_impl(traces[i]);
  });
  if (explain_ != nullptr) {
    // Serial emission in trace order, so the record stream is identical for
    // any pool size even through an order-preserving sink.
    for (std::size_t i = 0; i < results.size(); ++i) {
      explain_->emit(explain(results[i], 0, i));
    }
  }
  return results;
}

VoteOutcome Detector::detect_rounds(
    const std::vector<chat::SessionTrace>& traces,
    common::ThreadPool* pool) const {
  const std::vector<DetectionResult> results = detect_batch(traces, pool);
  std::vector<Verdict> votes;
  votes.reserve(results.size());
  for (const DetectionResult& r : results) {
    votes.push_back(r.verdict);
  }
  return majority_vote(votes, config_.vote_fraction);
}

obs::RoundExplanation Detector::explain(const DetectionResult& result,
                                        std::uint64_t stream_id,
                                        std::uint64_t round_index,
                                        const VoteOutcome* tally) const {
  obs::RoundExplanation e;
  e.stream_id = stream_id;
  e.round_index = round_index;
  e.verdict = static_cast<int>(result.verdict);
  e.lof_score = result.lof_score;
  e.lof_tau = lof_.tau();
  e.z1 = result.features.z1;
  e.z2 = result.features.z2;
  e.z3 = result.features.z3;
  e.z4 = result.features.z4;
  e.estimated_delay_s = result.diagnostics.estimated_delay_s;
  e.transmitted_changes =
      static_cast<std::uint64_t>(result.diagnostics.transmitted_changes);
  e.received_changes =
      static_cast<std::uint64_t>(result.diagnostics.received_changes);
  e.matched_transmitted =
      static_cast<std::uint64_t>(result.diagnostics.matched_transmitted);
  e.matched_received =
      static_cast<std::uint64_t>(result.diagnostics.matched_received);
  e.t_snr = result.transmitted_quality.snr_proxy;
  e.r_snr = result.received_quality.snr_proxy;
  e.r_completeness = result.received_quality.window_completeness;
  e.inputs_finite = result.transmitted_quality.all_finite &&
                    result.received_quality.all_finite;
  if (tally != nullptr) {
    e.votes_attacker = static_cast<std::uint64_t>(tally->attacker_votes);
    e.votes_legit = static_cast<std::uint64_t>(tally->total_votes -
                                               tally->attacker_votes);
    e.votes_abstain = static_cast<std::uint64_t>(tally->abstained_votes);
  }
  return e;
}

}  // namespace lumichat::core
