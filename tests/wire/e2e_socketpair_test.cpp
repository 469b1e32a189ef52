// End-to-end gate for the wire front-end: the same deterministic chat
// population driven (a) in-process through service::run_load and (b) as
// wire bytes over real socketpairs through run_socket_load must produce
// bit-identical per-session verdict sequences — every window verdict, LOF
// score bit pattern, and final vote. This is what licenses the socket bench
// to report service-level accuracy numbers.
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "service/load_generator.hpp"
#include "wire/socket_load.hpp"

#include "../service/service_test_util.hpp"

namespace lumichat::wire {
namespace {

using service::testutil::test_streaming_config;
using service::testutil::trained_registry;

service::LoadSpec e2e_spec() {
  service::LoadSpec spec;
  spec.n_sessions = 10;
  spec.duration_s = 4.0;      // 40 ticks x 10 sessions = 400 frames
  spec.sample_rate_hz = 10.0;
  spec.ticks_per_pump = 2;
  spec.full_chat = false;     // synthetic 8x8 chats; geometry the arena pools
  spec.master_seed = 404;
  return spec;
}

service::ServiceConfig e2e_service_config() {
  service::ServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.max_sessions = 64;
  return cfg;
}

/// Field-by-field equality of two reports' verdict streams. The server
/// numbers sessions in the order it admits Hellos across connections,
/// which need not be chat order, so ids are not compared.
void expect_bit_identical(const service::LoadReport& wire,
                          const service::LoadReport& ref) {
  ASSERT_EQ(wire.sessions.size(), ref.sessions.size());
  for (std::size_t i = 0; i < ref.sessions.size(); ++i) {
    const service::SessionResult& w = wire.sessions[i];
    const service::SessionResult& r = ref.sessions[i];
    EXPECT_EQ(w.truth_attacker, r.truth_attacker) << "session " << i;
    ASSERT_EQ(w.window_verdicts.size(), r.window_verdicts.size())
        << "session " << i;
    EXPECT_EQ(w.window_verdicts, r.window_verdicts) << "session " << i;
    ASSERT_EQ(w.verdicts.size(), r.verdicts.size()) << "session " << i;
    for (std::size_t k = 0; k < r.verdicts.size(); ++k) {
      EXPECT_EQ(w.verdicts[k], r.verdicts[k])
          << "session " << i << " window " << k;
      // Bitwise, not approximate: the wire carries f64 planes and scores
      // losslessly, so even the NaN-safe comparison is memcmp.
      EXPECT_EQ(std::memcmp(&w.lof_scores[k], &r.lof_scores[k],
                            sizeof(double)),
                0)
          << "session " << i << " window " << k;
    }
    EXPECT_EQ(w.final_verdict.is_attacker, r.final_verdict.is_attacker)
        << "session " << i;
    EXPECT_EQ(w.windows_abstained, r.windows_abstained) << "session " << i;
    EXPECT_EQ(w.pending_samples_dropped, r.pending_samples_dropped)
        << "session " << i;
  }
}

TEST(WireEndToEnd, SocketVerdictsBitIdenticalToInProcess) {
  const service::LoadSpec spec = e2e_spec();
  const service::ServiceConfig service_cfg = e2e_service_config();
  const core::StreamingConfig streaming = test_streaming_config();

  const service::LoadReport ref = service::run_load(
      spec, service_cfg, streaming, trained_registry(), nullptr, nullptr);
  ASSERT_EQ(ref.sessions.size(), spec.n_sessions);
  // The spec completes two 2 s windows per session — a vacuous pass (no
  // verdicts anywhere) must not count as agreement.
  ASSERT_EQ(ref.sessions.front().window_verdicts.size(), 2u);

  SocketLoadOptions options;
  options.n_connections = 3;  // forces multi-stream multiplexing
  const service::LoadReport wire = run_socket_load(
      spec, service_cfg, streaming, trained_registry(), options);
  EXPECT_EQ(wire.frames_fed, ref.frames_fed);
  expect_bit_identical(wire, ref);
}

TEST(WireEndToEnd, SocketRunIsDeterministicAcrossConnectionCounts) {
  const service::LoadSpec spec = e2e_spec();
  const service::ServiceConfig service_cfg = e2e_service_config();
  const core::StreamingConfig streaming = test_streaming_config();

  SocketLoadOptions one;
  one.n_connections = 1;
  const service::LoadReport a = run_socket_load(spec, service_cfg, streaming,
                                                trained_registry(), one);
  SocketLoadOptions many;
  many.n_connections = 5;
  const service::LoadReport b = run_socket_load(spec, service_cfg, streaming,
                                                trained_registry(), many);
  expect_bit_identical(a, b);
}

TEST(WireEndToEnd, SocketRunIsDeterministicAcrossThreadCounts) {
  const service::LoadSpec spec = e2e_spec();
  const service::ServiceConfig service_cfg = e2e_service_config();
  const core::StreamingConfig streaming = test_streaming_config();

  const service::LoadReport serial = run_socket_load(
      spec, service_cfg, streaming, trained_registry(), SocketLoadOptions{});
  common::ThreadPool pool(4);
  const service::LoadReport threaded =
      run_socket_load(spec, service_cfg, streaming, trained_registry(),
                      SocketLoadOptions{}, &pool);
  expect_bit_identical(serial, threaded);
}

TEST(WireEndToEnd, UnlistenablePathThrowsInsteadOfReportingARun) {
  SocketLoadOptions options;
  options.listen_path = "/nonexistent-lumichat-dir/stats.sock";
  EXPECT_THROW((void)run_socket_load(e2e_spec(), e2e_service_config(),
                                     test_streaming_config(),
                                     trained_registry(), options),
               std::runtime_error);
}

TEST(WireEndToEnd, NanDurationThrowsInsteadOfDriving) {
  service::LoadSpec spec = e2e_spec();
  spec.duration_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_socket_load(spec, e2e_service_config(),
                                     test_streaming_config(),
                                     trained_registry()),
               std::invalid_argument);
}

}  // namespace
}  // namespace lumichat::wire
