#include "core/model_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lumichat::core {

namespace {
constexpr const char* kMagic = "lumichat-lof";
constexpr const char* kVersion = "v3";

void expect_tag(const char* want, const char* what, bool ok) {
  if (!ok) {
    throw std::runtime_error(std::string("load_model: missing ") + what +
                             " (expected tag '" + want + "')");
  }
}

/// Reads `n` vectors. `n` comes from the file, so nothing is sized from it
/// up front: a hostile count fails as a truncated file, not in the
/// allocator.
std::vector<FeatureVector> load_vectors(std::istream& in, std::size_t n) {
  std::vector<FeatureVector> training;
  std::string tag;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector f;
    if (!(in >> tag >> f.z1 >> f.z2 >> f.z3 >> f.z4) || tag != "z") {
      std::ostringstream msg;
      msg << "load_model: truncated at vector " << i << " of " << n;
      throw std::runtime_error(msg.str());
    }
    training.push_back(f);
  }
  return training;
}
}  // namespace

void save_model(const ModelState& state, std::ostream& out) {
  out << kMagic << " " << kVersion << "\n";
  out << "version " << state.version << "\n";
  out << "k " << state.k << "\n";
  out.precision(17);  // round-trip exact doubles
  out << "tau " << state.tau << "\n";
  out << "n " << state.training.size() << "\n";
  for (const FeatureVector& f : state.training) {
    out << "z " << f.z1 << " " << f.z2 << " " << f.z3 << " " << f.z4 << "\n";
  }
  if (!out) throw std::runtime_error("save_model: write failed");
}

void save_model(const ModelState& state, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_model: cannot open " + path);
  save_model(state, out);
}

ModelState load_model(std::istream& in) {
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != kMagic) {
    throw std::runtime_error("load_model: not a lumichat model");
  }
  if (version != kVersion) {
    throw std::runtime_error("load_model: unsupported version " + version);
  }

  ModelState state;
  std::string tag;
  expect_tag("version", "model version id",
             static_cast<bool>(in >> tag >> state.version) &&
                 tag == "version");
  expect_tag("k", "k",
             static_cast<bool>(in >> tag >> state.k) && tag == "k");
  expect_tag("tau", "tau",
             static_cast<bool>(in >> tag >> state.tau) && tag == "tau");
  std::size_t n = 0;
  expect_tag("n", "vector count",
             static_cast<bool>(in >> tag >> n) && tag == "n");
  state.training = load_vectors(in, n);
  return state;
}

ModelState load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return load_model(in);
}

std::shared_ptr<const model::LofModelSnapshot> snapshot_from_model(
    const ModelState& state) {
  return model::LofModelSnapshot::fit(state.training, state.k, state.tau,
                                      state.version);
}

ModelState model_state_of(const model::LofModelSnapshot& snapshot) {
  ModelState state;
  state.k = snapshot.k();
  state.tau = snapshot.tau();
  state.version = snapshot.version();
  state.training = snapshot.training();
  return state;
}

ModelState model_state_of(const DetectorConfig& config,
                          std::vector<FeatureVector> training) {
  ModelState state;
  state.k = config.lof_neighbors;
  state.tau = config.lof_threshold;
  state.training = std::move(training);
  return state;
}

}  // namespace lumichat::core
