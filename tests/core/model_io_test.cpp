#include "core/model_io.hpp"

#include <filesystem>
#include <sstream>
#include <string>

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

// v1 (no version line) and v2 (with a KD-tree `index` line) are retired
// formats; they fail through the same error as any unknown version.
TEST(ModelIo, RejectsUnsupportedVersion) {
  for (const char* text : {
           "lumichat-lof v99\nk 5\n",
           "lumichat-lof v1\nk 3\ntau 2.5\nn 1\nz 0.9 0.8 0.7 0.2\n",
           "lumichat-lof v2\nversion 1\nk 3\ntau 2.5\n"
           "n 1\nz 0.9 0.8 0.7 0.2\n"}) {
    std::stringstream ss(text);
    try {
      (void)load_model(ss);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, RejectsTruncatedFile) {
  const ModelState original = sample_state(5);
  std::stringstream ss;
  save_model(original, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);  // chop mid-vector
  std::stringstream cut(text);
  EXPECT_THROW((void)load_model(cut), std::runtime_error);

  // A hostile vector count over a short file is a truncation too, not an
  // allocation failure.
  for (const char* n : {"1000000000000", "18446744073709551615"}) {
    std::stringstream hostile(std::string("lumichat-lof v3\nversion 1\n"
                                          "k 5\ntau 3\nn ") +
                              n + "\nz 0.9 0.8 0.7 0.2\n");
    try {
      (void)load_model(hostile);
      ADD_FAILURE() << "accepted n " << n;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("truncated at vector "
                                                       "1 of ") + n),
                std::string::npos)
          << e.what();
    }
  }
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

TEST(ModelIo, SaveWritesV3WithVersion) {
  ModelState state = sample_state(6);
  state.version = 12;
  std::stringstream ss;
  save_model(state, ss);
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("lumichat-lof v3\nversion 12\nk 5\ntau 2.75\nn 6\nz ",
                       0),
            0u);

  const ModelState back = load_model(ss);
  EXPECT_EQ(back.version, 12u);
  EXPECT_EQ(back.k, state.k);
  EXPECT_EQ(back.tau, state.tau);  // bit-exact: saved at precision 17
}

TEST(ModelIo, RoundTripRebuildsBitIdenticalSnapshot) {
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
  ASSERT_EQ(reloaded->size(), direct->size());
  common::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const FeatureVector probe{rng.uniform(), rng.uniform(),
                              rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)};
    EXPECT_EQ(direct->score(probe), reloaded->score(probe));
  }
}

TEST(ModelIo, RejectsMissingVersionLine) {
  std::stringstream ss(
      "lumichat-lof v3\n"
      "k 5\n"
      "tau 3\n");
  EXPECT_THROW((void)load_model(ss), std::runtime_error);
}

}  // namespace
}  // namespace lumichat::core
