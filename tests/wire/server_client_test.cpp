// WireServer + WireClient conversation semantics over socketpairs:
// handshake and admission, stream multiplexing, heartbeats, orderly and
// error teardown, idle sweeping — the connection state machine the socket
// bench relies on.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "image/image.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/session_manager.hpp"
#include "wire/client.hpp"
#include "wire/crc32.hpp"
#include "wire/server.hpp"

#include "../service/service_test_util.hpp"

namespace lumichat::wire {
namespace {

using service::testutil::test_streaming_config;
using service::testutil::trained_registry;

service::ServiceConfig small_service_config(std::size_t max_sessions = 32) {
  service::ServiceConfig cfg;
  cfg.n_shards = 4;
  cfg.max_sessions = max_sessions;
  cfg.session_queue_capacity = 64;
  return cfg;
}

WireServerConfig small_server_config() {
  WireServerConfig cfg;
  cfg.max_connections = 4;
  cfg.idle_timeout_s = 0.0;
  cfg.frame_width = 8;
  cfg.frame_height = 8;
  cfg.arena_initial = 8;
  return cfg;
}

/// A server (no scheduler: feeds drain inline) plus one connected client.
/// `registry` is the manager's, which the server's wire.* instruments share.
struct Rig {
  service::SessionManager manager;
  obs::MetricsRegistry& registry;
  WireServer server;
  std::unique_ptr<WireClient> client;
  int server_fd = -1;

  explicit Rig(service::ServiceConfig service_cfg = small_service_config(),
               WireServerConfig server_cfg = small_server_config())
      : manager(service_cfg, test_streaming_config(), trained_registry()),
        registry(manager.metrics()),
        server(manager, nullptr, server_cfg) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server_fd = sv[0];
    EXPECT_TRUE(server.adopt(sv[0]));
    client = std::make_unique<WireClient>(sv[1]);
  }

  /// Client flush -> server cycle -> client poll, a few times over.
  void converse(int cycles = 4) {
    for (int i = 0; i < cycles; ++i) {
      client->flush();
      (void)server.poll(0);
      client->poll();
    }
  }
};

AckEvent expect_one_ack(WireClient& client) {
  AckEvent ack;
  EXPECT_EQ(client.take_acks(&ack, 1), 1u);
  return ack;
}

TEST(WireServerClient, HandshakeAssignsShardPinnedSession) {
  Rig rig;
  rig.client->hello(/*token=*/99, /*stream_id=*/1, 8, 8);
  rig.converse();

  const AckEvent ack = expect_one_ack(*rig.client);
  EXPECT_EQ(ack.stream_id, 1u);
  EXPECT_EQ(ack.ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));
  // The ack reports the shard whose table holds the assigned session.
  EXPECT_EQ(ack.ack.assigned_session % rig.manager.config().n_shards,
            ack.ack.shard);
  EXPECT_EQ(rig.manager.shard_index(ack.ack.assigned_session),
            ack.ack.shard);
  EXPECT_EQ(rig.server.stream_count(), 1u);
  EXPECT_EQ(rig.manager.active_sessions(), 1u);
}

TEST(WireServerClient, DuplicateStreamIdRefused) {
  Rig rig;
  rig.client->hello(7, 5, 8, 8);
  rig.client->hello(8, 5, 8, 8);  // same stream id, same connection
  rig.converse();
  AckEvent acks[2];
  ASSERT_EQ(rig.client->take_acks(acks, 2), 2u);
  EXPECT_EQ(acks[0].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));
  EXPECT_EQ(acks[1].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kDuplicateStream));
  EXPECT_EQ(rig.server.stream_count(), 1u);
}

TEST(WireServerClient, BadDimensionsRefused) {
  Rig rig;
  rig.client->hello(7, 1, 0, 8);
  rig.client->hello(7, 2, kMaxFrameEdge + 1, 8);
  rig.converse();
  AckEvent acks[2];
  ASSERT_EQ(rig.client->take_acks(acks, 2), 2u);
  EXPECT_EQ(acks[0].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kBadDimensions));
  EXPECT_EQ(acks[1].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kBadDimensions));
  EXPECT_EQ(acks[0].ack.shard, 0u);  // refused Hellos report shard 0
  EXPECT_EQ(acks[1].ack.shard, 0u);
  EXPECT_EQ(rig.manager.active_sessions(), 0u);
}

TEST(WireServerClient, CapacityRejectionReportedInAck) {
  Rig rig(small_service_config(/*max_sessions=*/1));
  rig.client->hello(1, 1, 8, 8);
  rig.client->hello(2, 2, 8, 8);
  rig.converse();
  AckEvent acks[2];
  ASSERT_EQ(rig.client->take_acks(acks, 2), 2u);
  EXPECT_EQ(acks[0].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));
  EXPECT_EQ(acks[1].ack.status,
            static_cast<std::uint32_t>(HelloStatus::kRejected));
  EXPECT_EQ(rig.registry.counter("wire.hello_rejects").value(), 1u);
}

TEST(WireServerClient, HeartbeatEchoes) {
  Rig rig;
  rig.client->heartbeat(1, 1, 123456789);
  rig.converse();
  EXPECT_EQ(rig.client->heartbeats_echoed(), 1u);
}

TEST(WireServerClient, FramesProduceWireVerdicts) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  const AckEvent ack = expect_one_ack(*rig.client);
  ASSERT_EQ(ack.ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));

  // Default streaming config: 10 Hz sampling, 2 s window -> a window
  // completes after 20 frames.
  const image::Image tx(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const image::Image rx(8, 8, image::Pixel{90.0, 90.0, 90.0});
  for (std::uint32_t k = 0; k < 20; ++k) {
    rig.client->send_frame(3, 1, k, static_cast<std::uint64_t>(k) * 100000,
                           tx, rx);
  }
  rig.converse(8);

  VerdictEvent verdict;
  ASSERT_EQ(rig.client->take_verdicts(&verdict, 1), 1u);
  EXPECT_EQ(verdict.stream_id, 1u);
  EXPECT_EQ(verdict.verdict.window_index, 0u);
  EXPECT_EQ(rig.registry.counter("wire.frames_in").value(), 20u);
  EXPECT_EQ(rig.registry.counter("wire.verdicts_out").value(), 1u);
  EXPECT_EQ(rig.registry.histogram("wire.push_to_verdict").count(), 1u);
  // The pooled path: every frame drew from and returned to the arena.
  EXPECT_EQ(rig.server.arena().stats().recycled_total, 20u);
}

TEST(WireServerClient, ByeClosesStreamAndEvictsSession) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);
  ASSERT_EQ(rig.manager.active_sessions(), 1u);

  rig.client->bye(3, 1);
  rig.converse();
  EXPECT_EQ(rig.server.stream_count(), 0u);
  EXPECT_EQ(rig.manager.active_sessions(), 0u);
  // The server acknowledged the close with its own Bye.
  ByeEvent bye;
  ASSERT_EQ(rig.client->take_byes(&bye, 1), 1u);
  EXPECT_EQ(bye.bye.reason, static_cast<std::uint32_t>(ByeReason::kNormal));
  // The connection itself stays usable for other streams.
  rig.client->hello(4, 2, 8, 8);
  rig.converse();
  EXPECT_EQ(expect_one_ack(*rig.client).ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));
}

TEST(WireServerClient, MalformedBytesCloseConnectionWithByeAndCounter) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);

  // Raw garbage straight onto the socket: an impossible protocol version.
  const std::uint8_t junk[32] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_GT(::send(rig.client->fd(), junk, sizeof(junk), 0), 0);
  rig.converse(6);

  EXPECT_EQ(rig.registry.counter("wire.malformed").value(), 1u);
  EXPECT_EQ(rig.server.connection_count(), 0u);
  // The stream's session was evicted with the connection.
  EXPECT_EQ(rig.manager.active_sessions(), 0u);
  // Best-effort Bye(kProtocolError) reached the client before the close.
  ByeEvent bye;
  ASSERT_EQ(rig.client->take_byes(&bye, 1), 1u);
  EXPECT_EQ(bye.bye.reason,
            static_cast<std::uint32_t>(ByeReason::kProtocolError));

  // A well-sealed Hello stamped with the retired version 1 (CRC re-sealed,
  // so only the version byte is wrong) gets the same treatment.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(rig.server.adopt(sv[0]));
  WireClient old_peer(sv[1]);
  std::uint8_t hello[kHeaderSize + kHelloPayloadSize];
  ASSERT_EQ(encode_hello(hello, sizeof(hello), 5, 1, HelloMsg{8, 8, 0}),
            sizeof(hello));
  hello[4] = 1;
  const std::uint32_t crc = crc32_final(
      crc32_update(crc32_update(kCrc32Init, hello, 20), hello + kHeaderSize,
                   kHelloPayloadSize));
  std::memcpy(hello + 20, &crc, sizeof(crc));
  ASSERT_EQ(::send(old_peer.fd(), hello, sizeof(hello), 0),
            static_cast<ssize_t>(sizeof(hello)));
  for (int i = 0; i < 6; ++i) {
    (void)rig.server.poll(0);
    old_peer.poll();
  }
  EXPECT_EQ(rig.registry.counter("wire.malformed").value(), 2u);
  EXPECT_EQ(rig.server.connection_count(), 0u);
  EXPECT_EQ(rig.manager.active_sessions(), 0u);
  ASSERT_EQ(old_peer.take_byes(&bye, 1), 1u);
  EXPECT_EQ(bye.bye.reason,
            static_cast<std::uint32_t>(ByeReason::kProtocolError));
}

TEST(WireServerClient, PeerHangupEvictsSessions) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);
  rig.client.reset();  // closes the client end
  for (int i = 0; i < 4; ++i) (void)rig.server.poll(0);
  EXPECT_EQ(rig.server.connection_count(), 0u);
  EXPECT_EQ(rig.manager.active_sessions(), 0u);
}

TEST(WireServerClient, IdleConnectionsAreSwept) {
  WireServerConfig cfg = small_server_config();
  cfg.idle_timeout_s = 0.005;
  Rig rig(small_service_config(), cfg);
  ASSERT_EQ(rig.server.connection_count(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (void)rig.server.poll(0);
  EXPECT_EQ(rig.server.connection_count(), 0u);
  EXPECT_EQ(rig.registry.counter("wire.idle_closed").value(), 1u);
}

TEST(WireServerClient, AdoptRefusedPastMaxConnections) {
  WireServerConfig cfg = small_server_config();
  cfg.max_connections = 1;
  Rig rig(small_service_config(), cfg);  // occupies the only slot
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_FALSE(rig.server.adopt(sv[0]));
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(rig.server.connection_count(), 1u);
}

TEST(WireServerClient, ServerToClientMessageTypeFromClientIsProtocolError) {
  Rig rig;
  VerdictMsg bogus;
  std::uint8_t buf[kHeaderSize + kVerdictPayloadSize];
  const std::size_t n = encode_verdict(buf, sizeof(buf), 1, 1, bogus);
  ASSERT_GT(::send(rig.client->fd(), buf, n, 0), 0);
  rig.converse(6);
  EXPECT_EQ(rig.registry.counter("wire.malformed").value(), 1u);
  EXPECT_EQ(rig.server.connection_count(), 0u);
}

TEST(WireServerClient, StatsRequestServesRegistrySnapshot) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);
  const image::Image tx(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const image::Image rx(8, 8, image::Pixel{90.0, 90.0, 90.0});
  for (std::uint32_t k = 0; k < 5; ++k) {
    rig.client->send_frame(3, 1, k, static_cast<std::uint64_t>(k) * 100000,
                           tx, rx);
  }
  rig.converse(4);

  // Stats need no Hello'd stream — any v2 connection may ask.
  rig.client->request_stats(0, 99, StatsFormat::kJson);
  rig.client->request_stats(0, 99, StatsFormat::kPrometheus);
  rig.converse(4);
  const std::vector<StatsEvent> events = rig.client->take_stats();
  ASSERT_EQ(events.size(), 2u);

  const std::string& json = events[0].text;
  EXPECT_EQ(events[0].format, StatsFormat::kJson);
  // Wire plane, service plane, and model plane all in one snapshot.
  EXPECT_NE(json.find("\"wire.frames_in\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"service.frames_in\":5"), std::string::npos);
  EXPECT_NE(json.find("\"service.sessions_active\":1"), std::string::npos);
  EXPECT_NE(json.find("\"model.version\":"), std::string::npos);
  EXPECT_NE(json.find("\"service.shard.000.sessions\":"), std::string::npos);
  EXPECT_NE(json.find("\"wire.stage.decode\":"), std::string::npos);
  EXPECT_NE(json.find("\"service.stage.queue_wait\":"), std::string::npos);
  EXPECT_NE(json.find("\"service.stage.window\":"), std::string::npos);

  const std::string& prom = events[1].text;
  EXPECT_EQ(events[1].format, StatsFormat::kPrometheus);
  EXPECT_NE(prom.find("# TYPE wire_frames_in_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wire_frames_in_total 5"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.999\""), std::string::npos);
  EXPECT_EQ(rig.registry.counter("wire.stats_served").value(), 2u);
}

TEST(WireServerClient, StatsSnapshotCoversEveryLayerWithNoRegistryArgument) {
  // The server takes no registry: its wire.* instruments live in the
  // manager's, and the snapshot adds the attached scheduler's counters.
  service::SessionManager manager(small_service_config(),
                                  test_streaming_config(), trained_registry());
  service::FrameScheduler scheduler;
  manager.attach_scheduler(&scheduler);
  WireServer server(manager, &scheduler, small_server_config());
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(server.adopt(sv[0]));
  WireClient client(sv[1]);
  const auto converse = [&] {
    for (int i = 0; i < 8; ++i) {
      client.flush();
      (void)server.poll(0);
      client.poll();
    }
  };
  client.hello(3, 1, 8, 8);
  converse();
  (void)expect_one_ack(client);
  const image::Image tx(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const image::Image rx(8, 8, image::Pixel{90.0, 90.0, 90.0});
  for (std::uint32_t k = 0; k < 20; ++k) {
    client.send_frame(3, 1, k, static_cast<std::uint64_t>(k) * 100000, tx,
                      rx);
  }
  converse();

  const obs::RegistrySnapshot s = server.stats_snapshot();
  EXPECT_EQ(s.counter("wire.frames_in"), 20u);
  ASSERT_NE(s.histogram("wire.stage.decode"), nullptr);
  EXPECT_EQ(s.histogram("wire.stage.decode")->count, 20u);
  EXPECT_EQ(s.counter("service.frames_processed"), 20u);
  EXPECT_GT(s.counter("scheduler.pumps"), 0u);
  EXPECT_GT(s.counter("scheduler.drain_tasks"), 0u);
}

TEST(WireServerClient, HeartbeatPingRecordsRoundTripTime) {
  Rig rig;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(rig.server.adopt(sv[0]));
  WireClient pinger(sv[1], 64);

  pinger.heartbeat_ping(1, 1);
  for (int i = 0; i < 4; ++i) {
    pinger.flush();
    (void)rig.server.poll(0);
    pinger.poll();
  }
  EXPECT_EQ(pinger.heartbeats_echoed(), 1u);
  EXPECT_EQ(pinger.heartbeat_rtt().count(), 1u);
  EXPECT_GT(pinger.heartbeat_rtt().max(), 0.0);
}

TEST(WireServerClient, SteadyStateFramesNeverTouchRegistryMutex) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);

  const image::Image tx(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const image::Image rx(8, 8, image::Pixel{90.0, 90.0, 90.0});
  // Warm one frame through, then demand zero name->instrument resolutions
  // across a full window of traffic: every handle was cached up front.
  rig.client->send_frame(3, 1, 0, 0, tx, rx);
  rig.converse();
  const std::uint64_t lookups_before = rig.registry.lookup_count();
  for (std::uint32_t k = 1; k < 40; ++k) {
    rig.client->send_frame(3, 1, k, static_cast<std::uint64_t>(k) * 100000,
                           tx, rx);
  }
  rig.converse(8);
  VerdictEvent verdict;
  ASSERT_GE(rig.client->take_verdicts(&verdict, 1), 1u);
  EXPECT_EQ(rig.registry.lookup_count(), lookups_before);
}

TEST(WireServerClient, ProtocolErrorTriggersFlightRecorderAutoDump) {
  obs::FlightRecorder recorder(/*lanes=*/2, /*entries_per_lane=*/32);
  const std::string path =
      ::testing::TempDir() + "lumichat_flight_proto_err.jsonl";
  std::remove(path.c_str());
  recorder.arm_auto_dump(path, obs::kTriggerProtocolError);

  Rig rig;
  rig.manager.attach_flight_recorder(&recorder);
  rig.client->hello(3, 1, 8, 8);
  rig.converse();
  (void)expect_one_ack(*rig.client);

  const std::uint8_t junk[32] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_GT(::send(rig.client->fd(), junk, sizeof(junk), 0), 0);
  rig.converse(6);

  EXPECT_GE(recorder.trigger_count(), 1u);
  // The poll cycle after the trigger flushed the dump.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char line[512] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(line).find("protocol_error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WireServerClient, WindowsClosingInOneCycleReachEveryConnectionInOrder) {
  // One verdict per stream per cycle: the cycles after the one that closed
  // every window see no new window, so only the left-over batch makes them
  // scan the streams again.
  WireServerConfig cfg = small_server_config();
  cfg.verdict_flush_max = 1;
  Rig rig(small_service_config(), cfg);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(rig.server.adopt(sv[0]));
  WireClient second(sv[1]);
  WireClient* clients[2] = {rig.client.get(), &second};
  for (std::uint32_t c = 0; c < 2; ++c) {
    clients[c]->hello(10 + c, 1, 8, 8);
    clients[c]->flush();
  }
  rig.converse();
  for (WireClient* client : clients) {
    client->poll();
    EXPECT_EQ(expect_one_ack(*client).ack.status,
              static_cast<std::uint32_t>(HelloStatus::kAccepted));
  }

  // Three 20-frame windows per connection, all read in one cycle.
  const image::Image tx(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const image::Image rx(8, 8, image::Pixel{90.0, 90.0, 90.0});
  for (std::uint32_t k = 0; k < 60; ++k) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      clients[c]->send_frame(10 + c, 1, k,
                             static_cast<std::uint64_t>(k) * 100000, tx, rx);
    }
  }
  for (WireClient* client : clients) client->flush();
  EXPECT_EQ(rig.server.poll(0), 120u);
  EXPECT_EQ(rig.registry.counter("service.windows_completed").value(), 6u);
  EXPECT_EQ(rig.registry.counter("wire.verdicts_out").value(), 2u);

  for (int cycle = 0; cycle < 6; ++cycle) (void)rig.server.poll(0);
  EXPECT_EQ(rig.registry.counter("wire.verdicts_out").value(), 6u);
  for (WireClient* client : clients) {
    client->poll();
    VerdictEvent verdicts[4];
    ASSERT_EQ(client->take_verdicts(verdicts, 4), 3u);
    for (std::uint32_t w = 0; w < 3; ++w) {
      EXPECT_EQ(verdicts[w].stream_id, 1u);
      EXPECT_EQ(verdicts[w].verdict.window_index, w);
    }
  }
}

TEST(WireServerClient, SendFrameRefusesUnsendablePairsWithoutQueuing) {
  Rig rig;
  rig.client->hello(3, 1, 8, 8);  // so the outgoing buffer is not empty
  const std::size_t queued = rig.client->pending_out();
  ASSERT_GT(queued, 0u);

  const image::Image good(8, 8, image::Pixel{120.0, 120.0, 120.0});
  const auto refused = [&](const char* what, const image::Image& tx,
                           const image::Image& rx) {
    SCOPED_TRACE(what);
    EXPECT_THROW(rig.client->send_frame(3, 1, 0, 0, tx, rx),
                 std::invalid_argument);
    EXPECT_EQ(rig.client->pending_out(), queued);
  };
  refused("mismatched dimensions", good, image::Image(8, 9));
  refused("empty", image::Image{}, image::Image{});
  const image::Image wide(kMaxFrameEdge + 1, 1);
  refused("513 wide", wide, wide);
  for (const double bad : {0.5, -0.0, 256.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    image::Image dirty = good;
    dirty.data()[37].b = bad;
    refused("non-byte transmitted channel", dirty, good);
    refused("non-byte received channel", good, dirty);
  }

  // A byte-valued pair still goes out, and only it reaches the server.
  rig.client->send_frame(3, 1, 0, 0, good, good);
  EXPECT_EQ(rig.client->pending_out(), queued + frame_wire_size(8, 8));
  rig.converse();
  EXPECT_EQ(expect_one_ack(*rig.client).ack.status,
            static_cast<std::uint32_t>(HelloStatus::kAccepted));
  EXPECT_EQ(rig.registry.counter("wire.frames_in").value(), 1u);
  EXPECT_EQ(rig.registry.counter("wire.malformed").value(), 0u);
}

}  // namespace
}  // namespace lumichat::wire
