#include "core/model_io.hpp"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace lumichat::core {
namespace {

ModelState sample_state(std::size_t n = 20) {
  common::Rng rng(5);
  ModelState s;
  s.k = 5;
  s.tau = 2.75;
  for (std::size_t i = 0; i < n; ++i) {
    s.training.push_back(FeatureVector{rng.uniform(), rng.uniform(),
                                       rng.uniform(-1.0, 1.0),
                                       rng.uniform(0.0, 2.0)});
  }
  return s;
}

TEST(ModelIo, StreamRoundTripIsExact) {
  const ModelState original = sample_state();
  std::stringstream ss;
  save_model(original, ss);
  const ModelState back = load_model(ss);
  EXPECT_EQ(back.k, original.k);
  EXPECT_DOUBLE_EQ(back.tau, original.tau);
  ASSERT_EQ(back.training.size(), original.training.size());
  for (std::size_t i = 0; i < back.training.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.training[i].z1, original.training[i].z1);
    EXPECT_DOUBLE_EQ(back.training[i].z2, original.training[i].z2);
    EXPECT_DOUBLE_EQ(back.training[i].z3, original.training[i].z3);
    EXPECT_DOUBLE_EQ(back.training[i].z4, original.training[i].z4);
  }
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lumichat_model.txt").string();
  const ModelState original = sample_state(8);
  save_model(original, path);
  const ModelState back = load_model(path);
  EXPECT_EQ(back.training.size(), 8u);
  std::filesystem::remove(path);
}

TEST(ModelIo, RejectsWrongMagic) {
  std::stringstream ss("not-a-model v1\nk 5\n");
  EXPECT_THROW((void)load_model(ss), std::runtime_error);
}

TEST(ModelIo, RejectsUnsupportedVersion) {
  std::stringstream ss("lumichat-lof v99\nk 5\n");
  EXPECT_THROW((void)load_model(ss), std::runtime_error);
}

TEST(ModelIo, RejectsTruncatedFile) {
  const ModelState original = sample_state(5);
  std::stringstream ss;
  save_model(original, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);  // chop mid-vector
  std::stringstream cut(text);
  EXPECT_THROW((void)load_model(cut), std::runtime_error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW((void)load_model("/nonexistent/model.txt"),
               std::runtime_error);
}

TEST(ModelIo, RebuiltDetectorScoresIdentically) {
  const ModelState state = sample_state();
  Detector direct;
  direct.attach_model(snapshot_from_model(state));

  std::stringstream ss;
  save_model(state, ss);
  Detector reloaded;
  reloaded.attach_model(snapshot_from_model(load_model(ss)));

  common::Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const FeatureVector probe{rng.uniform(), rng.uniform(),
                              rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)};
    EXPECT_DOUBLE_EQ(direct.classify(probe).lof_score,
                     reloaded.classify(probe).lof_score);
  }
}

TEST(ModelIo, ModelStateOfCapturesConfig) {
  DetectorConfig cfg;
  cfg.lof_neighbors = 7;
  cfg.lof_threshold = 2.2;
  const ModelState s = model_state_of(cfg, sample_state(10).training);
  EXPECT_EQ(s.k, 7u);
  EXPECT_DOUBLE_EQ(s.tau, 2.2);
  EXPECT_EQ(s.training.size(), 10u);
}

// A v1 file written before the index/version era (no `version`, no `index`
// lines) must still load: version 0, default KD-tree leaf size.
TEST(ModelIo, LoadsLegacyV1Fixture) {
  std::stringstream v1(
      "lumichat-lof v1\n"
      "k 3\n"
      "tau 2.5\n"
      "n 4\n"
      "z 0.9 0.8 0.7 0.2\n"
      "z 0.91 0.82 0.71 0.22\n"
      "z 0.88 0.79 0.69 0.19\n"
      "z 0.92 0.81 0.72 0.21\n");
  const ModelState state = load_model(v1);
  EXPECT_EQ(state.k, 3u);
  EXPECT_DOUBLE_EQ(state.tau, 2.5);
  EXPECT_EQ(state.version, 0u);
  EXPECT_EQ(state.index_leaf_size, model::kDefaultIndexLeafSize);
  ASSERT_EQ(state.training.size(), 4u);
  EXPECT_DOUBLE_EQ(state.training[0].z1, 0.9);
  EXPECT_DOUBLE_EQ(state.training[3].z4, 0.21);
  EXPECT_NO_THROW((void)snapshot_from_model(state));
}

TEST(ModelIo, SaveWritesV2WithVersionAndIndex) {
  ModelState state = sample_state(6);
  state.version = 12;
  state.index_leaf_size = 4;
  std::stringstream ss;
  save_model(state, ss);
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("lumichat-lof v2\n", 0), 0u);
  EXPECT_NE(text.find("version 12\n"), std::string::npos);
  EXPECT_NE(text.find("index kdtree 4\n"), std::string::npos);

  const ModelState back = load_model(ss);
  EXPECT_EQ(back.version, 12u);
  EXPECT_EQ(back.index_leaf_size, 4u);
  EXPECT_EQ(back.k, state.k);
  EXPECT_EQ(back.tau, state.tau);  // bit-exact: saved at precision 17
}

TEST(ModelIo, V2RoundTripRebuildsBitIdenticalSnapshot) {
  ModelState state = sample_state(24);
  state.version = 3;
  state.tau = 2.718281828459045;
  const auto direct = snapshot_from_model(state);

  std::stringstream ss;
  save_model(model_state_of(*direct), ss);
  const auto reloaded = snapshot_from_model(load_model(ss));

  EXPECT_EQ(reloaded->version(), direct->version());
  EXPECT_EQ(reloaded->k(), direct->k());
  EXPECT_EQ(reloaded->tau(), direct->tau());
  EXPECT_EQ(reloaded->index_leaf_size(), direct->index_leaf_size());
  ASSERT_EQ(reloaded->size(), direct->size());
  common::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const FeatureVector probe{rng.uniform(), rng.uniform(),
                              rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)};
    EXPECT_EQ(direct->score(probe), reloaded->score(probe));
  }
}

TEST(ModelIo, V2RejectsMissingVersionLine) {
  std::stringstream ss(
      "lumichat-lof v2\n"
      "k 5\n"
      "tau 3\n");
  EXPECT_THROW((void)load_model(ss), std::runtime_error);
}

}  // namespace
}  // namespace lumichat::core
