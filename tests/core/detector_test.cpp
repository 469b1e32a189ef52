#include "core/detector.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "model/snapshot.hpp"

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

TEST(Detector, RejectsBrokenFilterDesignAtConstruction) {
  // A low-pass cut-off at Nyquist fails here, not when the first window
  // is preprocessed.
  DetectorConfig cfg;
  cfg.lowpass_cutoff_hz = cfg.sample_rate_hz / 2.0;
  EXPECT_THROW(Detector{cfg}, std::invalid_argument);
}

TEST(Detector, ClassifyBeforeTrainingThrows) {
  const Detector det;
  EXPECT_FALSE(det.is_trained());
  EXPECT_THROW((void)det.classify(FeatureVector{}), std::logic_error);
}

TEST(Detector, FitModelThenClassify) {
  Detector det;
  det.attach_model(model::fit_lof_model(det.config(), legit_like(20, 1)));
  EXPECT_TRUE(det.is_trained());

  const DetectionResult good = det.classify(FeatureVector{1.0, 0.95, 0.85, 0.3});
  EXPECT_FALSE(good.is_attacker);
  EXPECT_LT(good.lof_score, 3.0);

  const DetectionResult bad = det.classify(FeatureVector{0.1, 0.2, -0.4, 1.5});
  EXPECT_TRUE(bad.is_attacker);
  EXPECT_GT(bad.lof_score, 3.0);
}

TEST(Detector, ThresholdAdjustable) {
  Detector det;
  det.attach_model(model::fit_lof_model(det.config(), legit_like(20, 2)));
  const FeatureVector borderline{0.7, 0.7, 0.5, 0.6};
  const double score = det.classify(borderline).lof_score;
  det.set_tau(score + 0.01);
  EXPECT_FALSE(det.classify(borderline).is_attacker);
  det.set_tau(score - 0.01);
  EXPECT_TRUE(det.classify(borderline).is_attacker);
}

TEST(Detector, ResultCarriesFeaturesAndScore) {
  Detector det;
  det.attach_model(model::fit_lof_model(det.config(), legit_like(20, 3)));
  const FeatureVector z{0.9, 0.9, 0.8, 0.35};
  const DetectionResult r = det.classify(z);
  EXPECT_DOUBLE_EQ(r.features.z1, z.z1);
  EXPECT_DOUBLE_EQ(r.features.z4, z.z4);
  EXPECT_GT(r.lof_score, 0.0);
}

TEST(Detector, SetTauThreadsThroughToExplanations) {
  Detector det;
  det.attach_model(model::fit_lof_model(det.config(), legit_like(20, 5)));
  const DetectionResult r = det.classify(FeatureVector{0.9, 0.9, 0.8, 0.35});
  EXPECT_DOUBLE_EQ(det.explain(r).lof_tau, det.config().lof_threshold);

  det.set_tau(1.75);
  EXPECT_DOUBLE_EQ(det.tau(), 1.75);
  // The satellite fix: the adjusted tau reaches both the decision and the
  // audit record, not just one of them.
  EXPECT_DOUBLE_EQ(det.explain(det.classify(r.features)).lof_tau, 1.75);
}

TEST(Detector, AttachedModelIsSharedAcrossCopies) {
  Detector det;
  const auto snap = model::fit_lof_model(det.config(), legit_like(20, 6));
  det.attach_model(snap);
  EXPECT_EQ(det.model().get(), snap.get());
  EXPECT_EQ(&det.training_data(), &snap->training());

  const Detector clone = det;  // sessions clone detectors; model is shared
  EXPECT_EQ(clone.model().get(), snap.get());
  EXPECT_EQ(clone.classify(FeatureVector{0.9, 0.9, 0.8, 0.35}).lof_score,
            det.classify(FeatureVector{0.9, 0.9, 0.8, 0.35}).lof_score);
}

TEST(Detector, AttachModelAdoptsModelParameters) {
  Detector det;
  const auto snap =
      model::LofModelSnapshot::fit(legit_like(20, 7), 3, 2.25);
  det.attach_model(snap);
  EXPECT_TRUE(det.is_trained());
  EXPECT_EQ(det.config().lof_neighbors, 3u);
  EXPECT_DOUBLE_EQ(det.config().lof_threshold, 2.25);
}

TEST(Detector, ConfigPropagates) {
  DetectorConfig cfg;
  cfg.lof_threshold = 2.0;
  cfg.lof_neighbors = 3;
  Detector det(cfg);
  det.attach_model(model::fit_lof_model(det.config(), legit_like(10, 4)));
  EXPECT_DOUBLE_EQ(det.config().lof_threshold, 2.0);
  // tau=2 is stricter than the default 3: a mild outlier gets flagged.
  const DetectionResult r = det.classify(FeatureVector{0.6, 0.6, 0.4, 0.7});
  if (r.lof_score > 2.0) {
    EXPECT_TRUE(r.is_attacker);
  }
}

}  // namespace
}  // namespace lumichat::core
