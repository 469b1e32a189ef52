#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace lumichat::obs {
namespace {

TEST(LogHistogram, EmptyReportsZeroEverywhere) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(LogHistogram, SingleSampleIsEveryQuantile) {
  LogHistogram h;
  h.record(1e-3);
  EXPECT_EQ(h.count(), 1u);
  // Whatever q, the one sample's bucket midpoint is the answer — including
  // the q = 0 edge (rank clamps to the first sample, not "nothing").
  const double v = h.quantile(0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), v);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), v);
  // Quarter-octave buckets: the midpoint is within +/-9% of the sample.
  EXPECT_GT(v, 0.91e-3);
  EXPECT_LT(v, 1.09e-3);
  // Sum/mean/max are exact, not bucket-resolution.
  EXPECT_DOUBLE_EQ(h.sum(), 1e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);
}

TEST(LogHistogram, QuantilesLandInTheRightBucket) {
  LogHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1e-3);
  h.record(100e-3);
  EXPECT_EQ(h.count(), 100u);
  // Bucket edges are quarter-octaves: +/-9% resolution, so allow a
  // generous window around each true value.
  EXPECT_GT(h.quantile(0.5), 0.8e-3);
  EXPECT_LT(h.quantile(0.5), 1.3e-3);
  // The 99th of 100 sorted samples is still 1 ms; only the max reaches
  // the 100 ms bucket.
  EXPECT_LT(h.quantile(0.99), 1.3e-3);
  EXPECT_GT(h.quantile(1.0), 80e-3);
  EXPECT_LT(h.quantile(1.0), 130e-3);
}

TEST(LogHistogram, QuantileIsMonotoneInQ) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-4);
  double prev = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LogHistogram, TracksExactMeanAndMaxAlongsideBuckets) {
  LogHistogram h;
  h.record(1e-3);
  h.record(3e-3);
  h.record(8e-3);
  // Bucket quantiles are +/-9%, but sum/mean/max are exact.
  EXPECT_DOUBLE_EQ(h.sum(), 12e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 4e-3);
  EXPECT_DOUBLE_EQ(h.max(), 8e-3);
}

TEST(LogHistogram, OutOfRangeQuantileArgumentsClamp) {
  LogHistogram h;
  h.record(1e-3);
  h.record(4e-3);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.quantile(std::nan("")), h.quantile(0.0));
}

TEST(LogHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  LogHistogram h;
  h.record(0.0);    // at/below the 1 us floor -> bucket 0
  h.record(-5.0);   // negative -> bucket 0, excluded from sum/max
  h.record(std::nan(""));  // NaN -> bucket 0, excluded from sum/max
  h.record(1e9);    // ~31 years -> top bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1e9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_GT(h.quantile(1.0), 1e3);  // landed in the hours-range top bucket
}

TEST(LogHistogram, FewerThanThousandSamplesP999IsTheMaxBucket) {
  // With n < 1000 samples the p99.9 rank ceil(0.999 * n) == n: the answer
  // is the maximum sample's bucket, never an interpolated fiction.
  LogHistogram h;
  for (int i = 1; i <= 10; ++i) {
    h.record(static_cast<double>(i) * 1e-3);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.999), h.quantile(1.0));
  // Quarter-octave bucket midpoint of the 10 ms max: within +/-9%.
  EXPECT_GT(h.quantile(0.999), 0.91e-2);
  EXPECT_LT(h.quantile(0.999), 1.09e-2);
  // At 1000 samples the p99.9 rank (ceil(0.999 * 1000) = 999) first
  // separates from the max: one outlier among 999 fast samples no longer
  // drags the p99.9 up.
  LogHistogram k;
  for (int i = 0; i < 999; ++i) k.record(1e-3);
  k.record(1.0);
  EXPECT_LT(k.quantile(0.999), 2e-3);
  EXPECT_GT(k.quantile(1.0), 0.9);
}

TEST(LogHistogram, SingleBucketSaturationCollapsesAllQuantiles) {
  LogHistogram h;
  for (int i = 0; i < 5000; ++i) {
    h.record(2e-3);  // every sample in one bucket
  }
  const double v = h.quantile(0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.001), v);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), v);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), v);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), v);
  // Exact-count accumulators are untouched by saturation (the sum sees
  // only fp addition rounding, never bucket quantisation).
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_NEAR(h.sum(), 5000 * 2e-3, 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 2e-3);
}

TEST(LogHistogram, ResetZeroesSumAndMaxToo) {
  LogHistogram h;
  h.record(0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// LogHistogram as the per-window verdict-latency recorder the service
// runtime feeds (seconds).
TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(LatencyHistogram, ExtremeValuesClampInsteadOfCrashing) {
  LogHistogram h;
  h.record(0.0);   // below the 1 us floor
  h.record(-1.0);  // nonsense input
  h.record(1e9);   // far beyond the top bucket edge
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.quantile(1.0), 0.0);
}

TEST(LatencyHistogram, ResetClears) {
  LogHistogram h;
  h.record(1e-3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, InstrumentAddressesAreStablePerName) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a");
  Counter& c2 = reg.counter("a");
  EXPECT_EQ(&c1, &c2);
  EXPECT_NE(&reg.counter("b"), &c1);
  EXPECT_EQ(&reg.gauge("a"), &reg.gauge("a"));  // separate namespace
  EXPECT_EQ(&reg.histogram("a"), &reg.histogram("a"));
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("zeta").add(3);
  reg.counter("alpha").add(1);
  reg.gauge("load").set(0.75);
  reg.histogram("lat").record(2e-3);

  const RegistrySnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[0].second, 1u);
  EXPECT_EQ(s.counters[1].first, "zeta");
  EXPECT_EQ(s.counters[1].second, 3u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 0.75);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].name, "lat");
  EXPECT_EQ(s.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(s.histograms[0].sum, 2e-3);
}

TEST(MetricsRegistry, ResetZeroesButKeepsInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(9);
  reg.gauge("g").set(3.0);
  reg.histogram("h").record(1e-3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same instrument, zeroed in place
  const RegistrySnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].second, 0u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 0.0);
  EXPECT_EQ(s.histograms[0].count, 0u);
}

TEST(MetricsRegistry, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("frames\"quoted\\name").add(1);  // keys must be escaped
  reg.gauge("ratio").set(0.5);
  reg.histogram("latency").record(3e-3);
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"p999_s\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_s\""), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentWritersLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOpsEach = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Resolve once, bump through the pointer — the documented hot-path
      // pattern; the resolutions themselves also race on the registry map.
      Counter& c = reg.counter("ops");
      LogHistogram& h = reg.histogram("lat");
      for (int i = 0; i < kOpsEach; ++i) {
        c.add(1);
        h.record(1e-3);
        reg.gauge("last").set(static_cast<double>(i));
      }
    });
  }
  // Snapshots taken mid-flight must be internally consistent (never tear),
  // even though their totals are moving targets.
  for (int i = 0; i < 50; ++i) {
    const RegistrySnapshot s = reg.snapshot();
    for (const auto& [name, v] : s.counters) {
      EXPECT_LE(v, static_cast<std::uint64_t>(kThreads) * kOpsEach);
    }
  }
  for (std::thread& w : workers) w.join();

  const RegistrySnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kOpsEach);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count,
            static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_DOUBLE_EQ(s.histograms[0].max, 1e-3);
}

TEST(MetricsRegistry, LookupCountTracksNameResolutionsNotInstrumentOps) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.lookup_count(), 0u);
  Counter& c = reg.counter("frames");
  LogHistogram& h = reg.histogram("lat");
  EXPECT_EQ(reg.lookup_count(), 2u);
  // Hot-path instrument operations through held pointers never touch the
  // registry map — this is the invariant the steady-state frame path
  // relies on (and the wire test asserts end to end).
  for (int i = 0; i < 1000; ++i) {
    c.add(1);
    h.record(1e-3);
  }
  EXPECT_EQ(reg.lookup_count(), 2u);
  (void)reg.snapshot();  // snapshots read the map without "looking up"
  EXPECT_EQ(reg.lookup_count(), 2u);
  (void)reg.counter("frames");  // every resolution counts, even repeats
  EXPECT_EQ(reg.lookup_count(), 3u);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("wire.frames_in").add(42);
  reg.gauge("service.sessions_active").set(7.0);
  for (int i = 0; i < 100; ++i) reg.histogram("wire.stage.decode").record(2e-3);

  const std::string prom = reg.snapshot().to_prometheus();
  // Dots sanitize to underscores; counters gain _total, histograms are
  // summaries in seconds with the three dashboard quantiles.
  EXPECT_NE(prom.find("# TYPE wire_frames_in_total counter\n"
                      "wire_frames_in_total 42\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE service_sessions_active gauge\n"
                      "service_sessions_active 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE wire_stage_decode_seconds summary"),
            std::string::npos);
  EXPECT_NE(prom.find("wire_stage_decode_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("wire_stage_decode_seconds{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("wire_stage_decode_seconds_count 100"),
            std::string::npos);
}

TEST(RegistrySnapshot, BuilderMutatorsMergeIntoSortedOrder) {
  RegistrySnapshot s;
  s.add_counter("b", 2);
  s.add_counter("a", 1);
  s.add_counter("b", 3);  // accumulates
  s.set_gauge("g", 1.0);
  s.set_gauge("g", 9.0);  // overwrites
  LogHistogram h;
  h.record(1e-3);
  s.add_histogram("lat", h);
  LogHistogram h2;
  h2.record(4e-3);
  s.add_histogram("lat", h2);  // merges same-name histograms

  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a");
  EXPECT_EQ(s.counters[1].second, 5u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 9.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(s.histograms[0].sum, 5e-3);
}

TEST(RegistrySnapshot, NamedLookupsFindPresentNamesOnly) {
  MetricsRegistry reg;
  reg.counter("b").add(4);
  reg.counter("a").add(1);
  reg.histogram("lat").record(2e-3);
  const RegistrySnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("a"), 1u);
  EXPECT_EQ(s.counter("b"), 4u);
  EXPECT_EQ(s.counter("missing"), 0u);
  ASSERT_NE(s.histogram("lat"), nullptr);
  EXPECT_EQ(s.histogram("lat")->count, 1u);
  EXPECT_EQ(s.histogram("b"), nullptr);  // counters are not histograms
}

TEST(ScopedMetricsTimer, RecordsElapsedWallTimeOnDestruction) {
  MetricsRegistry reg;
  LogHistogram& hist = reg.histogram("timer.scope");
  {
    const ScopedMetricsTimer timer(hist);
    EXPECT_EQ(hist.count(), 0u);  // nothing recorded until scope exit
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(hist.count(), 1u);
  // The recorded value is real elapsed time: at least the sleep, and not
  // absurdly larger (generous bound for loaded CI machines).
  EXPECT_GE(hist.max(), 2e-3);
  EXPECT_LT(hist.max(), 60.0);
}

TEST(ScopedMetricsTimer, NestedScopesRecordIndependently) {
  MetricsRegistry reg;
  LogHistogram& outer = reg.histogram("timer.outer");
  LogHistogram& inner = reg.histogram("timer.inner");
  {
    const ScopedMetricsTimer outer_timer(outer);
    for (int i = 0; i < 3; ++i) {
      const ScopedMetricsTimer inner_timer(inner);
    }
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 3u);
  // The outer scope encloses every inner one.
  EXPECT_GE(outer.max(), inner.sum());
}

}  // namespace
}  // namespace lumichat::obs
