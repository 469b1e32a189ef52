#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace lumichat::obs {

namespace {

/// Geometric midpoint of bucket i: 1 us * 2^((i + 0.5) / 4).
double bucket_midpoint_s(std::size_t i) {
  const double exponent = (static_cast<double>(i) + 0.5) /
                          static_cast<double>(LogHistogram::kBucketsPerOctave);
  return 1e-6 * std::exp2(exponent);
}

double quantile_from_buckets(
    const std::array<std::uint64_t, LogHistogram::kBuckets>& buckets,
    std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return bucket_midpoint_s(i);
  }
  return 0.0;  // unreachable
}

void atomic_add_double(std::atomic<double>& a, double d) {
  a.fetch_add(d, std::memory_order_relaxed);
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t LogHistogram::bucket_of(double seconds) {
  const double micros = seconds * 1e6;
  if (!(micros > 1.0)) return 0;  // also catches NaN and negatives
  const double idx =
      std::floor(std::log2(micros) * static_cast<double>(kBucketsPerOctave));
  if (idx >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

void LogHistogram::record(double seconds) {
  counts_[bucket_of(seconds)].fetch_add(1, std::memory_order_relaxed);
  const double v = std::isfinite(seconds) && seconds > 0.0 ? seconds : 0.0;
  atomic_add_double(sum_, v);
  atomic_max_double(max_, v);
}

std::uint64_t LogHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double LogHistogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> local{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    local[i] = counts_[i].load(std::memory_order_relaxed);
    total += local[i];
  }
  return quantile_from_buckets(local, total, q);
}

double LogHistogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double LogHistogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double LogHistogram::max() const { return max_.load(std::memory_order_relaxed); }

void LogHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  return quantile_from_buckets(buckets, count, q);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LogHistogram>();
  return *slot;
}

HistogramSnapshot snapshot_of(const std::string& name, const LogHistogram& h) {
  HistogramSnapshot hs;
  hs.name = name;
  hs.sum = h.sum();
  hs.max = h.max();
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    hs.buckets[i] = h.counts_[i].load(std::memory_order_relaxed);
    hs.count += hs.buckets[i];
  }
  return hs;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back(snapshot_of(name, *h));
  }
  return s;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second->reset();
  for (auto& kv : gauges_) kv.second->reset();
  for (auto& kv : histograms_) kv.second->reset();
}

void RegistrySnapshot::set_gauge(const std::string& name, double value) {
  auto it = std::lower_bound(
      gauges.begin(), gauges.end(), name,
      [](const auto& a, const std::string& key) { return a.first < key; });
  if (it != gauges.end() && it->first == name) {
    it->second = value;
  } else {
    gauges.insert(it, {name, value});
  }
}

void RegistrySnapshot::add_counter(const std::string& name,
                                   std::uint64_t value) {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& a, const std::string& key) { return a.first < key; });
  if (it != counters.end() && it->first == name) {
    it->second += value;
  } else {
    counters.insert(it, {name, value});
  }
}

void RegistrySnapshot::add_histogram(const std::string& name,
                                     const LogHistogram& h) {
  HistogramSnapshot hs = snapshot_of(name, h);
  auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const HistogramSnapshot& a, const std::string& key) {
        return a.name < key;
      });
  if (it != histograms.end() && it->name == name) {
    it->count += hs.count;
    it->sum += hs.sum;
    it->max = std::max(it->max, hs.max);
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      it->buckets[i] += hs.buckets[i];
    }
  } else {
    histograms.insert(it, std::move(hs));
  }
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& a, const std::string& key) { return a.first < key; });
  return it != counters.end() && it->first == name ? it->second : 0;
}

const HistogramSnapshot* RegistrySnapshot::histogram(
    const std::string& name) const {
  const auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const HistogramSnapshot& a, const std::string& key) {
        return a.name < key;
      });
  return it != histograms.end() && it->name == name ? &*it : nullptr;
}

namespace {

void append_json_key(std::string& out, const std::string& name, bool& first) {
  if (!first) out.push_back(',');
  first = false;
  out.push_back('"');
  for (const char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\":";
}

}  // namespace

std::string RegistrySnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  char buf[256];
  bool first = true;
  for (const auto& [name, v] : counters) {
    append_json_key(out, name, first);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    append_json_key(out, name, first);
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    append_json_key(out, h.name, first);
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%" PRIu64
                  ",\"mean_s\":%.6g,\"max_s\":%.6g,\"p50_s\":%.6g,"
                  "\"p95_s\":%.6g,\"p99_s\":%.6g,\"p999_s\":%.6g}",
                  h.count, h.mean(), h.max, h.quantile(0.50), h.quantile(0.95),
                  h.quantile(0.99), h.quantile(0.999));
    out += buf;
  }
  out += "}}";
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map '.'
/// (and any other outsider) to '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string RegistrySnapshot::to_prometheus() const {
  std::string out;
  char buf[160];
  for (const auto& [name, v] : counters) {
    const std::string n = prom_name(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", n.c_str(), v);
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    std::snprintf(buf, sizeof(buf), "%s %.9g\n", n.c_str(), v);
    out += buf;
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string n = prom_name(h.name) + "_seconds";
    out += "# TYPE " + n + " summary\n";
    static constexpr double kQs[] = {0.5, 0.99, 0.999};
    static constexpr const char* kQLabels[] = {"0.5", "0.99", "0.999"};
    for (std::size_t i = 0; i < 3; ++i) {
      std::snprintf(buf, sizeof(buf), "%s{quantile=\"%s\"} %.9g\n", n.c_str(),
                    kQLabels[i], h.quantile(kQs[i]));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_sum %.9g\n%s_count %" PRIu64 "\n",
                  n.c_str(), h.sum, n.c_str(), h.count);
    out += buf;
  }
  return out;
}

}  // namespace lumichat::obs
