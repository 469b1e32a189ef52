// End-to-end gate for the wire front-end: the same deterministic chat
// population driven (a) in-process through service::run_load and (b) as
// wire bytes over real socketpairs through run_socket_load must produce
// bit-identical per-session verdict sequences — every window verdict, LOF
// score bit pattern, and final vote. This is what licenses the socket bench
// to report service-level accuracy numbers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "service/load_generator.hpp"
#include "wire/client.hpp"
#include "wire/routing.hpp"
#include "wire/server.hpp"
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
      // Bitwise, not approximate: the wire carries the byte planes and
      // scores losslessly, so even the NaN-safe comparison is memcmp.
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

// --- The wire's bytes -----------------------------------------------------
//
// Chat video is 8-bit, and a Frame carries each plane at one byte per
// channel. These tests render a population up front and send it over
// socketpairs, so they can count the bytes each frame took and watch the
// server's arena, and check the verdicts against run_load's.

/// Frames of one chat, in tick order.
using ChatFrames = std::vector<chat::FramePair>;

/// Every chat's frames of `spec`, in chat order.
std::vector<ChatFrames> chat_frames(const service::LoadSpec& spec) {
  const std::size_t ticks =
      chat::tick_count(spec.duration_s, spec.sample_rate_hz);
  std::vector<ChatFrames> chats(spec.n_sessions);
  for (std::size_t c = 0; c < spec.n_sessions; ++c) {
    const auto source = service::make_chat_source(
        spec, c, service::load_session_is_attacker(spec, c));
    for (std::size_t k = 0; k < ticks; ++k) {
      chats[c].push_back(source->next());
    }
  }
  return chats;
}

/// One window's outcome: the verdict and the LOF score's bits.
using WindowOutcome = std::pair<core::Verdict, std::uint64_t>;
using Outcomes = std::vector<std::vector<WindowOutcome>>;

/// run_load's verdicts for `spec`, in chat order.
Outcomes run_in_process(const service::LoadSpec& spec) {
  Outcomes out;
  for (const service::SessionResult& s :
       service::run_load(spec, e2e_service_config(), test_streaming_config(),
                         trained_registry())
           .sessions) {
    std::vector<WindowOutcome>& windows = out.emplace_back();
    for (std::size_t k = 0; k < s.verdicts.size(); ++k) {
      windows.emplace_back(s.verdicts[k],
                           std::bit_cast<std::uint64_t>(s.lof_scores[k]));
    }
  }
  return out;
}

struct SocketRun {
  Outcomes outcomes;
  double client_bytes_per_frame = 0.0;
  std::size_t arena_initial = 0;
  FrameArena::Stats arena;
};

/// Sends `frames` over `n_conns` socketpairs to a WireServer whose arena is
/// sized as run_socket_load sizes it, driving client and server in turn on
/// this thread as run_socket_load does.
SocketRun feed_over_socket(const service::LoadSpec& spec,
                                   const std::vector<ChatFrames>& frames,
                                   std::size_t n_conns) {
  service::SessionManager manager(e2e_service_config(),
                                  test_streaming_config(), trained_registry());
  service::FrameScheduler scheduler(nullptr);
  manager.attach_scheduler(&scheduler);
  const std::size_t w = frames.front().front().transmitted.width();
  const std::size_t h = frames.front().front().transmitted.height();
  WireServerConfig cfg;
  cfg.max_connections = n_conns;
  cfg.idle_timeout_s = 0.0;
  cfg.frame_width = w;
  cfg.frame_height = h;
  cfg.arena_initial = socket_arena_jobs(n_conns, cfg.read_chunk, w, h);
  WireServer server(manager, &scheduler, cfg);

  std::vector<std::unique_ptr<WireClient>> clients;
  for (std::size_t c = 0; c < n_conns; ++c) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_TRUE(server.adopt(sv[0]));
    clients.push_back(std::make_unique<WireClient>(sv[1], 1024));
  }

  const std::size_t n_chats = frames.size();
  SocketRun run;
  run.outcomes.resize(n_chats);
  std::vector<service::SessionId> sessions(n_chats);
  std::size_t acked = 0;
  const auto collect = [&] {
    for (auto& client : clients) {
      client->poll();
      AckEvent acks[64];
      for (std::size_t n; (n = client->take_acks(acks, 64)) > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(acks[i].ack.status,
                    static_cast<std::uint32_t>(HelloStatus::kAccepted));
          sessions[acks[i].stream_id - 1] = acks[i].ack.assigned_session;
          ++acked;
        }
      }
      VerdictEvent verdicts[64];
      for (std::size_t n; (n = client->take_verdicts(verdicts, 64)) > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
          const VerdictMsg& v = verdicts[i].verdict;
          run.outcomes[verdicts[i].stream_id - 1].emplace_back(
              static_cast<core::Verdict>(v.verdict),
              std::bit_cast<std::uint64_t>(v.lof_score));
        }
      }
    }
  };
  const auto token = [](std::size_t c) { return mix64(c + 1); };

  for (std::size_t c = 0; c < n_chats; ++c) {
    clients[c % n_conns]->hello(token(c), static_cast<std::uint32_t>(c + 1),
                                static_cast<std::uint32_t>(w),
                                static_cast<std::uint32_t>(h));
  }
  for (int spin = 0; acked < n_chats && spin < 10000; ++spin) {
    for (auto& client : clients) client->flush();
    (void)server.poll(0);
    collect();
  }
  EXPECT_EQ(acked, n_chats);

  const std::size_t ticks = frames.front().size();
  std::size_t sent = 0;
  std::size_t ingested = 0;
  double bytes = 0.0;
  for (std::size_t done = 0; done < ticks; done += spec.ticks_per_pump) {
    for (std::size_t c = 0; c < n_chats; ++c) {
      WireClient& client = *clients[c % n_conns];
      for (std::size_t k = done;
           k < std::min(ticks, done + spec.ticks_per_pump); ++k) {
        const chat::FramePair& pair = frames[c][k];
        const std::size_t before = client.pending_out();
        client.send_frame(token(c), static_cast<std::uint32_t>(c + 1),
                          static_cast<std::uint32_t>(k),
                          static_cast<std::uint64_t>(
                              std::llround(pair.t_sec * 1e6)),
                          pair.transmitted, pair.received);
        bytes += static_cast<double>(client.pending_out() - before);
        ++sent;
      }
    }
    for (int spin = 0; ingested < sent && spin < 10000; ++spin) {
      for (auto& client : clients) client->flush();
      ingested += server.poll(0);
      collect();
    }
  }
  EXPECT_EQ(ingested, sent);
  const auto behind = [&] {
    for (std::size_t c = 0; c < n_chats; ++c) {
      if (run.outcomes[c].size() < manager.verdict_count(sessions[c])) {
        return true;
      }
    }
    return false;
  };
  for (int spin = 0; behind() && spin < 10000; ++spin) {
    (void)server.poll(0);
    collect();
  }
  run.client_bytes_per_frame = bytes / static_cast<double>(sent);
  run.arena_initial = cfg.arena_initial;
  run.arena = server.arena().stats();
  return run;
}

TEST(WireEndToEnd, EightBitFullChatFramesCrossAsBytesWithIdenticalVerdicts) {
  service::LoadSpec spec = e2e_spec();
  spec.n_sessions = 4;
  spec.full_chat = true;  // 96x72 frames, the paper-protocol geometry
  const auto frames = chat_frames(spec);
  ASSERT_EQ(frames.front().front().transmitted.width(), 96u);
  ASSERT_EQ(frames.front().front().transmitted.height(), 72u);

  const Outcomes ref = run_in_process(spec);
  // Two 2 s windows per session — a vacuous pass must not count.
  ASSERT_EQ(ref.front().size(), 2u);
  const SocketRun wire = feed_over_socket(spec, frames, 2);
  EXPECT_EQ(wire.outcomes, ref);
  // Both planes rode one byte per channel: 41,528 bytes a frame.
  EXPECT_EQ(wire.client_bytes_per_frame, 41528.0);
  EXPECT_EQ(wire.arena.allocated_frames, wire.arena_initial);
}

TEST(WireEndToEnd, EightBitRunStaysInsideItsArena) {
  // Many small frames on one connection: one 64 KiB read decodes a whole
  // block (60 sessions x 2 ticks x 440 bytes) before the pump drains it,
  // and the arena socket_arena_jobs sizes must hold every one of them.
  service::LoadSpec spec = e2e_spec();
  spec.n_sessions = 60;
  const auto frames = chat_frames(spec);
  const SocketRun wire = feed_over_socket(spec, frames, 1);
  EXPECT_EQ(wire.client_bytes_per_frame,
            static_cast<double>(frame_wire_size(8, 8)));
  EXPECT_EQ(wire.outcomes, run_in_process(spec));
  EXPECT_EQ(wire.arena.allocated_frames, wire.arena_initial);
  EXPECT_EQ(wire.arena.free_frames, wire.arena.allocated_frames);
}

}  // namespace
}  // namespace lumichat::wire
