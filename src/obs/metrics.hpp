// General-purpose metrics: named counters, gauges, and log-bucketed
// histograms behind one registry with a single snapshot/JSON path. A
// service has one registry, owned by its SessionManager and always on: the
// manager, its sessions and the WireServer in front of it resolve their
// instruments from it at construction.
//
// `LogHistogram` has 132 quarter-octave buckets covering 1 us .. ~2.4 h,
// plus exact running sum and max so snapshots report mean and worst-case,
// not just bucket-resolution quantiles.
//
// Writers never take a lock — counters and histogram buckets are relaxed
// atomics — so instruments can be bumped from pool workers at frame rate.
// `MetricsRegistry` name lookup does take a mutex; callers on hot paths
// resolve the instrument once (instrument addresses are stable for the
// registry's lifetime) and bump through the reference.
//
// Snapshots carry raw bucket arrays, not derived quantiles, so a histogram
// folded into a snapshot under an existing name (add_histogram) keeps exact
// quantiles.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lumichat::obs {

class LogHistogram;
struct HistogramSnapshot;

/// Takes a consistent point-in-time copy of one live histogram.
[[nodiscard]] HistogramSnapshot snapshot_of(const std::string& name,
                                            const LogHistogram& h);

/// Log-spaced histogram: four buckets per octave (quarter-power-of-two
/// edges, resolution about +/-9%) from 1 us to ~2.4 h, with exact sum and
/// max alongside. Values are seconds by convention but any non-negative
/// quantity works.
class LogHistogram {
 public:
  static constexpr std::size_t kBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 33;
  static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves;

  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const;

  /// Approximate q-quantile in seconds for q in [0, 1]: the geometric
  /// midpoint of the bucket holding the ceil(q * count)-th sample. Returns 0
  /// when the histogram is empty.
  [[nodiscard]] double quantile(double q) const;

  /// Exact sum of every recorded value (clamped to >= 0; NaN recorded as 0).
  [[nodiscard]] double sum() const;

  /// sum()/count(), or 0 when empty.
  [[nodiscard]] double mean() const;

  /// Exact largest recorded value, or 0 when empty.
  [[nodiscard]] double max() const;

  void reset();

 private:
  friend class MetricsRegistry;
  friend HistogramSnapshot snapshot_of(const std::string& name,
                                       const LogHistogram& h);

  [[nodiscard]] static std::size_t bucket_of(double seconds);

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Monotone named counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins named value (also supports relaxed accumulate).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram, carrying raw buckets so quantiles
/// stay exact after aggregation.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, LogHistogram::kBuckets> buckets{};

  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time copy of a whole registry, plus whatever values an
/// exporter attaches from outside it.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;           // name-sorted
  std::vector<HistogramSnapshot> histograms;                    // name-sorted

  /// Inserts or overwrites a gauge, preserving name order. Lets exporters
  /// attach derived values (model version, per-shard session counts) that
  /// live outside any registry.
  void set_gauge(const std::string& name, double value);

  /// Inserts or adds a counter, preserving name order.
  void add_counter(const std::string& name, std::uint64_t value);

  /// Appends `h` as a histogram snapshot under `name` (merging if present).
  void add_histogram(const std::string& name, const LogHistogram& h);

  /// The named counter's value, or 0 when the snapshot has none.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// The named histogram, or null when the snapshot has none.
  [[nodiscard]] const HistogramSnapshot* histogram(
      const std::string& name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,max,
  /// p50,p95,p99,p999},...}} with name-sorted keys.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): '.' in names becomes '_',
  /// counters get a `_total` suffix, histograms are emitted as summaries
  /// ({quantile="0.5|0.99|0.999"} plus `_sum`/`_count`).
  [[nodiscard]] std::string to_prometheus() const;
};

/// RAII wall-clock timer: records the seconds between construction and
/// destruction into a histogram. Resolve the histogram once (see the
/// registry-lookup note above), not per scope.
class ScopedMetricsTimer {
 public:
  explicit ScopedMetricsTimer(LogHistogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedMetricsTimer() {
    histogram_.record(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
  }

  ScopedMetricsTimer(const ScopedMetricsTimer&) = delete;
  ScopedMetricsTimer& operator=(const ScopedMetricsTimer&) = delete;

 private:
  LogHistogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Named-instrument registry. Lookup is mutexed; instruments themselves are
/// lock-free and their addresses are stable until the registry dies.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] LogHistogram& histogram(const std::string& name);

  [[nodiscard]] RegistrySnapshot snapshot() const;
  void reset();
  [[nodiscard]] std::string to_json() const { return snapshot().to_json(); }

  /// Number of name lookups (counter/gauge/histogram calls) ever made.
  /// Hot-path code is expected to resolve instruments once and keep the
  /// pointer; tests assert this stays flat across steady-state frames.
  [[nodiscard]] std::uint64_t lookup_count() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> lookups_{0};
  // std::map keeps name order deterministic and node addresses stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

}  // namespace lumichat::obs
