// Client half of the wire protocol: the feeder the socket bench and the
// end-to-end tests speak through.
//
// A WireClient owns one non-blocking socket and multiplexes any number of
// streams over it. Sends are buffered: hello()/send_frame()/heartbeat()/
// bye() encode into an outgoing ByteBuffer and flush() pushes as much as
// the socket accepts — so a caller can interleave flush() with the server's
// poll() on the same thread (the socketpair harness) without either side
// blocking on a full kernel buffer. poll() reads and decodes everything
// available, accumulating HelloAcks, Verdicts, Heartbeat echoes, Byes and
// StatsReplies for the caller to take.
//
// Like the server, the client's steady state allocates nothing per frame:
// encodes go straight into the (plateaued) outgoing buffer and decoded
// events land in pre-reserved vectors drained by take_acks/take_verdicts.
//
// Telemetry: heartbeat_ping() stamps the client's own steady clock into
// the heartbeat payload; the server reflects it with kFlagEcho set, and
// poll() turns the reflection into a round-trip-time sample recorded into
// the client's own heartbeat_rtt() histogram (a server never sees its
// peer's round trip, so the client keeps it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "obs/metrics.hpp"
#include "wire/buffer.hpp"
#include "wire/protocol.hpp"

namespace lumichat::wire {

/// One decoded server->client message, tagged with its stream.
struct AckEvent {
  std::uint32_t stream_id = 0;
  HelloAckMsg ack{};
};
struct VerdictEvent {
  std::uint32_t stream_id = 0;
  VerdictMsg verdict{};
};
struct ByeEvent {
  std::uint32_t stream_id = 0;
  ByeMsg bye{};
};
/// A stats snapshot served by the peer. The only client event that owns
/// heap storage — stats are a monitoring-rate request, never per-frame.
struct StatsEvent {
  std::uint32_t stream_id = 0;
  StatsFormat format = StatsFormat::kJson;
  std::string text;
};

class WireClient {
 public:
  /// Takes ownership of a connected socket (switched to non-blocking).
  /// `expected_events` pre-reserves the event vectors so steady-state
  /// polling does not grow them.
  explicit WireClient(int fd, std::size_t expected_events = 64);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // --- Buffered sends (call flush() to move them onto the wire) ----------
  // `token` is the stream's session token (the caller's identity);
  // each stream carries its own (a connection multiplexes many sessions).
  void hello(std::uint64_t token, std::uint32_t stream_id,
             std::uint32_t frame_width, std::uint32_t frame_height,
             std::uint64_t nonce = 0);
  /// Queues one frame pair at one byte per channel. Throws
  /// std::invalid_argument, queuing nothing, when the planes differ in size,
  /// are empty or exceed kMaxFrameEdge, or hold a channel that is not an
  /// integer in [0, 255].
  void send_frame(std::uint64_t token, std::uint32_t stream_id,
                  std::uint32_t frame_seq, std::uint64_t timestamp_us,
                  const image::Image& transmitted,
                  const image::Image& received, std::uint64_t trace_id = 0);
  void heartbeat(std::uint64_t token, std::uint32_t stream_id,
                 std::uint64_t t_us);
  /// Heartbeat carrying the client's own steady-clock microseconds; when
  /// the echo comes back flagged, poll() records the round-trip time.
  void heartbeat_ping(std::uint64_t token, std::uint32_t stream_id);
  /// Asks the server for a stats snapshot. The reply arrives as a
  /// StatsEvent.
  void request_stats(std::uint64_t token, std::uint32_t stream_id,
                     StatsFormat format = StatsFormat::kJson);
  void bye(std::uint64_t token, std::uint32_t stream_id,
           ByeReason reason = ByeReason::kNormal);

  /// Pushes buffered bytes to the socket until it would block. False only
  /// on a fatal socket error (the client is dead afterwards).
  bool flush();

  /// Bytes still buffered for sending.
  [[nodiscard]] std::size_t pending_out() const { return out_.readable(); }

  /// Reads and decodes everything currently available. Returns the number
  /// of messages decoded; check failed() for stream corruption / EOF.
  std::size_t poll();

  /// Moves up to `max` accumulated events into `out`, returning the count.
  std::size_t take_acks(AckEvent* out, std::size_t max);
  std::size_t take_verdicts(VerdictEvent* out, std::size_t max);
  std::size_t take_byes(ByeEvent* out, std::size_t max);
  /// Moves all accumulated stats replies out (allocates; monitoring-rate).
  std::vector<StatsEvent> take_stats();

  [[nodiscard]] std::size_t heartbeats_echoed() const { return heartbeats_; }
  /// Every heartbeat round-trip time observed so far, in seconds (one
  /// sample per flagged echo of a heartbeat_ping()).
  [[nodiscard]] const obs::LogHistogram& heartbeat_rtt() const {
    return heartbeat_rtt_;
  }
  /// Protocol corruption, unexpected EOF, or socket error was observed.
  [[nodiscard]] bool failed() const { return failed_; }
  /// The underlying socket (still owned by the client) — test harnesses use
  /// it to inject raw bytes past the encoder.
  [[nodiscard]] int fd() const { return fd_; }

 private:
  /// Reserves `wire_size` writable bytes in out_ and commits what `encode`
  /// wrote there, returning that count (0 when it refused).
  template <typename EncodeFn>
  std::size_t queue(std::size_t wire_size, EncodeFn&& encode);

  /// Client steady clock in microseconds (the heartbeat_ping timestamp).
  [[nodiscard]] static std::uint64_t now_us();

  int fd_;
  ByteBuffer out_;
  ByteBuffer in_;
  std::vector<AckEvent> acks_;
  std::vector<VerdictEvent> verdicts_;
  std::vector<ByeEvent> byes_;
  std::vector<StatsEvent> stats_;
  std::size_t heartbeats_ = 0;
  bool failed_ = false;
  obs::LogHistogram heartbeat_rtt_;
};

}  // namespace lumichat::wire
