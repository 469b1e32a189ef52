// Detector facade — the public entry point of the defense.
//
// Usage mirrors the paper's two phases:
//   Detector d(config);
//   // training phase: legit data only (features from d.featurize(trace))
//   d.attach_model(model::fit_lof_model(config, legit_features));
//   auto r = d.detect(trace);            // one 15-second detection round
//   auto v = d.detect_rounds(traces);    // multi-round majority voting
//
// A trace is what Alice's side observes: her own transmitted clip plus the
// received clip (chat::SessionTrace). Everything in between — luminance
// extraction, filtering, features, LOF — is handled internally.
#pragma once

#include <vector>

#include "chat/session.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "core/features.hpp"
#include "core/lof.hpp"
#include "core/luminance_extractor.hpp"
#include "core/preprocess.hpp"
#include "core/voting.hpp"
#include "obs/explain.hpp"

namespace lumichat::core {

/// Verdict and evidence for one detection round.
struct DetectionResult {
  bool is_attacker = false;
  /// Three-way verdict. Matches is_attacker unless the round abstained
  /// (possible only when DetectorConfig::enable_abstain is set), in which
  /// case is_attacker is false and lof_score/features are not meaningful.
  Verdict verdict = Verdict::kLegitimate;
  double lof_score = 0.0;
  FeatureVector features;
  FeatureDiagnostics diagnostics;
  /// Evidence assessment of the round's two signals (filled by detect();
  /// classify() on precomputed features leaves them at their defaults).
  SignalQuality transmitted_quality;
  SignalQuality received_quality;
};

class Detector {
 public:
  explicit Detector(DetectorConfig config = {});

  /// Computes the z1..z4 feature vector of one trace (no classification).
  [[nodiscard]] FeatureExtraction featurize(
      const chat::SessionTrace& trace) const;

  /// Attaches a shared immutable LOF model (the deployment path: snapshots
  /// come from a model::ModelRegistry or a loaded v3 model file). Adopts
  /// the snapshot's k and calibrated tau into the live configuration;
  /// set_tau() afterwards still overrides the threshold locally. Copies of
  /// this detector share the snapshot — no training data is duplicated.
  void attach_model(std::shared_ptr<const model::LofModelSnapshot> snapshot);

  /// The attached model handle (null until trained/attached).
  [[nodiscard]] const std::shared_ptr<const model::LofModelSnapshot>& model()
      const {
    return lof_.snapshot();
  }

  /// View into the shared snapshot's training set (empty until
  /// trained/attached); owned by the snapshot, not this detector.
  [[nodiscard]] const std::vector<FeatureVector>& training_data() const {
    return lof_.training_data();
  }

  /// One detection round.
  [[nodiscard]] DetectionResult detect(const chat::SessionTrace& trace) const;

  /// One window on raw luminance signals: preprocesses both, assesses their
  /// quality (`received_completeness` is the caller's fraction of received
  /// samples backed by a real landmark hit), abstains when enabled and the
  /// evidence is insufficient, otherwise extracts z1..z4 and classifies.
  /// detect() and StreamingDetector run every window through this.
  [[nodiscard]] DetectionResult detect_window(
      const signal::Signal& transmitted, const signal::Signal& received,
      double received_completeness) const;

  /// Classifies a precomputed feature vector.
  [[nodiscard]] DetectionResult classify(const FeatureVector& z) const;

  /// The frame-to-sample rule of both signals (shared with
  /// StreamingDetector, which feeds it one frame at a time).
  [[nodiscard]] const LuminanceExtractor& extractor() const {
    return extractor_;
  }

  /// Runs detect() on every trace, optionally fanning out over `pool`.
  /// Result i always corresponds to trace i and detection is stateless, so
  /// the output is identical for any pool size (nullptr = serial).
  [[nodiscard]] std::vector<DetectionResult> detect_batch(
      const std::vector<chat::SessionTrace>& traces,
      common::ThreadPool* pool = nullptr) const;

  /// Multi-round detection with majority voting (Sec. VII-B).
  [[nodiscard]] VoteOutcome detect_rounds(
      const std::vector<chat::SessionTrace>& traces,
      common::ThreadPool* pool = nullptr) const;

  [[nodiscard]] bool is_trained() const { return lof_.is_fitted(); }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

  /// Adjusts the decision threshold tau (Fig. 12 sweeps it). The new value
  /// threads through to classify()/detect() decisions and to the lof_tau
  /// field of every subsequently built RoundExplanation. Purely local to
  /// this detector — the attached shared snapshot is immutable.
  void set_tau(double tau) { lof_.set_tau(tau); }
  [[nodiscard]] double tau() const { return lof_.tau(); }

  /// Builds the decision record for one round's result (the full evidence
  /// chain: quality, delay, z1..z4, LOF vs tau, verdict, optional running
  /// vote tally). Purely a read — never changes detection state.
  [[nodiscard]] obs::RoundExplanation explain(
      const DetectionResult& result, std::uint64_t stream_id = 0,
      std::uint64_t round_index = 0,
      const VoteOutcome* tally = nullptr) const;

  /// Where detect()/detect_batch() send their per-round explanations.
  /// Defaults to obs::default_explanation_sink() (the LUMICHAT_EXPLAIN_OUT
  /// JSONL writer, or nullptr = silent). Copied detectors share the sink.
  void set_explanation_sink(obs::ExplanationSink* sink) { explain_ = sink; }
  [[nodiscard]] obs::ExplanationSink* explanation_sink() const {
    return explain_;
  }

 private:
  [[nodiscard]] DetectionResult detect_impl(
      const chat::SessionTrace& trace) const;

  DetectorConfig config_;
  LuminanceExtractor extractor_;
  Preprocessor preprocessor_;
  FeatureExtractor features_;
  LofClassifier lof_;
  obs::ExplanationSink* explain_ = nullptr;  ///< borrowed; may be null
};

}  // namespace lumichat::core
