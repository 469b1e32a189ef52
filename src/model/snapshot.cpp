#include "model/snapshot.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace lumichat::model {
namespace {

constexpr double kMinDensityDistance = 1e-9;  // duplicate-point guard

/// Sentinel for knn(): exclude no training point.
constexpr std::size_t kNoExclusion = static_cast<std::size_t>(-1);

/// Stack-buffer size for batched distance evaluation. Queries run
/// concurrently against a shared read-only snapshot, so scratch must live
/// on the stack, not in the object.
constexpr std::size_t kDistChunk = 64;

/// Bounded best-k candidate set kept as a max-heap on (d², index): the root
/// is the current worst, so a new candidate either displaces it or is
/// discarded. Selecting the k lexicographically-smallest pairs this way
/// yields exactly the set a full sort would — (d², index) is a total order
/// because indices are unique.
void consider(std::vector<Neighbor>& heap, std::size_t k, Neighbor cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end());
  } else if (cand < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end());
  }
}

}  // namespace

std::shared_ptr<const LofModelSnapshot> LofModelSnapshot::fit(
    std::vector<core::FeatureVector> training, std::size_t k, double tau,
    std::uint64_t version) {
  if (k == 0) {
    throw std::invalid_argument("LofModelSnapshot::fit: k must be >= 1");
  }
  if (training.size() <= k) {  // not k + 1: k may come from a file
    throw std::invalid_argument(
        "LofModelSnapshot::fit: need at least k+1 training vectors");
  }

  auto snap = std::shared_ptr<LofModelSnapshot>(new LofModelSnapshot());
  snap->version_ = version;
  snap->k_ = k;
  snap->tau_ = tau;
  snap->training_ = std::move(training);

  const std::size_t n = snap->training_.size();
  for (std::size_t a = 0; a < 4; ++a) snap->soa_[a].reserve(n);
  for (const core::FeatureVector& f : snap->training_) {
    const Point4 p = f.as_array();
    for (std::size_t a = 0; a < 4; ++a) snap->soa_[a].push_back(p[a]);
  }

  // k-distance of every training point (distance to its k-th nearest other
  // training point), then its LRD. The second pass needs every point's
  // neighbour list again, so keep them as flat arrays rather than
  // re-querying: n * k entries.
  snap->k_distance_.assign(n, 0.0);
  std::vector<double> neigh_dist(n * k, 0.0);
  std::vector<std::uint32_t> neigh_idx(n * k, 0);
  std::vector<std::size_t> neigh_count(n, 0);
  std::vector<Neighbor> scratch;
  for (std::size_t i = 0; i < n; ++i) {
    snap->knn(snap->training_[i].as_array(), i, scratch);
    neigh_count[i] = scratch.size();
    for (std::size_t j = 0; j < scratch.size(); ++j) {
      neigh_dist[i * k + j] = scratch[j].first;
      neigh_idx[i * k + j] = static_cast<std::uint32_t>(scratch[j].second);
    }
    snap->k_distance_[i] = scratch.empty() ? 0.0 : scratch.back().first;
  }
  snap->lrd_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.clear();
    for (std::size_t j = 0; j < neigh_count[i]; ++j) {
      scratch.emplace_back(neigh_dist[i * k + j], neigh_idx[i * k + j]);
    }
    snap->lrd_[i] = snap->lrd_of(scratch);
  }
  return snap;
}

void LofModelSnapshot::knn(const Point4& q, std::size_t exclude,
                           std::vector<Neighbor>& out) const {
  out.clear();
  const std::size_t n = training_.size();
  const simd::Kernels& kern = simd::active();
  double d2[kDistChunk];
  for (std::size_t pos = 0; pos < n; pos += kDistChunk) {
    const std::size_t len = std::min(kDistChunk, n - pos);
    kern.squared_dist4_batch(soa_[0].data() + pos, soa_[1].data() + pos,
                             soa_[2].data() + pos, soa_[3].data() + pos, len,
                             q.data(), d2);
    for (std::size_t i = 0; i < len; ++i) {
      if (pos + i == exclude) continue;
      consider(out, k_, {d2[i], pos + i});
    }
  }
  // Sort on d² — sqrt is monotone, so the order matches — and report
  // sqrt(d²), which is bit-identical to euclidean().
  std::sort(out.begin(), out.end());
  for (Neighbor& nb : out) nb.first = std::sqrt(nb.first);
}

double LofModelSnapshot::lrd_of(const std::vector<Neighbor>& neigh) const {
  if (neigh.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [dist, j] : neigh) {
    acc += std::max(k_distance_[j], dist);  // reach-dist_k
  }
  const double mean_reach =
      std::max(acc / static_cast<double>(neigh.size()), kMinDensityDistance);
  return 1.0 / mean_reach;  // Eq. 7
}

double LofModelSnapshot::score_of(const std::vector<Neighbor>& neigh) const {
  const double lrd_z = lrd_of(neigh);
  if (lrd_z <= 0.0) return std::numeric_limits<double>::infinity();
  double acc = 0.0;
  for (const auto& [dist, j] : neigh) acc += lrd_[j];
  const double mean_neighbor_lrd = acc / static_cast<double>(neigh.size());
  return mean_neighbor_lrd / lrd_z;  // Eq. 8
}

double LofModelSnapshot::score(const core::FeatureVector& z) const {
  std::vector<Neighbor> neigh;
  knn(z.as_array(), kNoExclusion, neigh);
  return score_of(neigh);
}

std::shared_ptr<const LofModelSnapshot> fit_lof_model(
    const core::DetectorConfig& config,
    std::vector<core::FeatureVector> training) {
  return LofModelSnapshot::fit(std::move(training), config.lof_neighbors,
                               config.lof_threshold);
}

}  // namespace lumichat::model
