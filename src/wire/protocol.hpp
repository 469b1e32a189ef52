// Compact binary frame/verdict wire protocol (version 2).
//
// Every message is a fixed 24-byte header followed by a typed payload, all
// little-endian (the only byte order the deployment targets — x86-64 and
// AArch64 — use; asserted at compile time where it matters):
//
//   offset  size  field
//   0       4     payload_len   bytes following the header
//   4       1     version       protocol version (must be kProtocolVersion)
//   5       1     type          MsgType
//   6       2     flags         kFlagEcho only
//   8       8     session_token caller identity
//   16      4     stream_id     one connection multiplexes many streams
//   20      4     crc32         CRC-32 over header bytes [0,20) + payload
//
// The CRC covers everything except itself, so a flipped bit anywhere in the
// message — including in payload_len — is caught before any payload field
// is trusted. Messages:
//
//   Hello        client -> server   open a stream
//   HelloAck     server -> client   assigned service session id (or refusal)
//   Frame        client -> server   one (transmitted, received) frame pair
//   Verdict      server -> client   one completed detection window
//   Heartbeat    both directions    liveness; server echoes the timestamp
//   Bye          both directions    orderly stream / connection close
//   StatsRequest client -> server   ask for a telemetry snapshot
//   StatsReply   server -> client   JSON / Prometheus snapshot text
//
// The version byte admits exactly one value: a header carrying any other
// version is malformed from the 5-byte prefix, so a peer speaking another
// version is refused before any payload is buffered.
//
// Telemetry rides in the format itself:
//   * Frame and Verdict payloads carry a 64-bit trace_id, propagated
//     decode -> queue -> detector -> verdict so per-stage latency can be
//     attributed to individual frames.
//   * Heartbeat echoes set kFlagEcho, letting the pinging side compute a
//     round-trip time without ambiguity (and never re-echoing an echo).
//   * StatsRequest/StatsReply expose a consistent MetricsRegistry snapshot
//     over the wire, in JSON or Prometheus text exposition.
//
// Encode functions write into caller-supplied buffers and never allocate;
// decode functions return bounds-checked views into the input buffer and
// never read past `len`. A Frame carries each pixel plane as R,G,B triplets
// at one byte per channel: 8-bit video, the only kind a camera sends. The
// encoder refuses a frame holding any channel that is not an exact byte
// value, so the byte planes the server hands the detector hold exactly the
// values the client's images held, which is what lets the socketpair
// end-to-end gate demand verdict equality with in-process feeding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "image/image.hpp"

namespace lumichat::wire {

inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 24;
/// Upper bound on payload_len a peer may announce; anything larger is
/// malformed (a 512x512 frame pair is 1.5 MiB, so 4 MiB leaves room without
/// letting a hostile length allocate the moon).
inline constexpr std::size_t kMaxPayload = 4u << 20;
/// Largest frame edge the protocol accepts (the image layer's limit).
inline constexpr auto kMaxFrameEdge =
    static_cast<std::uint32_t>(image::kMaxFrameEdge);

/// Header flag bits.
/// kFlagEcho marks a Heartbeat as the echo of an earlier ping: the receiver
/// records the round trip and must NOT echo it again (no ping-pong loops).
inline constexpr std::uint16_t kFlagEcho = 0x1;
inline constexpr std::uint16_t kKnownFlags = kFlagEcho;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kFrame = 3,
  kVerdict = 4,
  kHeartbeat = 5,
  kBye = 6,
  kStatsRequest = 7,
  kStatsReply = 8,
};

struct MessageHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kHeartbeat;
  std::uint16_t flags = 0;
  std::uint64_t session_token = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t crc32 = 0;
};

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kNeedMore = 1,  ///< buffer holds a prefix of a valid message; read more
  kMalformed = 2, ///< framing violation; the connection cannot be resynced
};

/// A decoded message: header plus a bounds-checked view of the payload
/// bytes (borrowed from the input buffer — valid only while it is).
struct MessageView {
  MessageHeader header;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
  /// Total bytes this message consumed from the input (header + payload).
  std::size_t wire_size = 0;
};

/// Incremental decoder step: inspects the first message in data[0..len).
/// kOk fills `out` and out->wire_size says how much to consume. kNeedMore
/// means an incomplete (but so-far-valid) prefix. kMalformed means the
/// stream is corrupt (bad version/type/flags/length/CRC) — callers close
/// the connection, since after a framing error byte boundaries are lost.
[[nodiscard]] DecodeStatus decode_message(const std::uint8_t* data,
                                          std::size_t len, MessageView* out);

// --- Typed payloads ------------------------------------------------------

struct HelloMsg {
  std::uint32_t frame_width = 0;
  std::uint32_t frame_height = 0;
  std::uint64_t client_nonce = 0;
};
inline constexpr std::size_t kHelloPayloadSize = 16;

/// HelloAck status codes.
enum class HelloStatus : std::uint32_t {
  kAccepted = 0,
  kRejected = 1,        ///< admission control: service at capacity
  kDuplicateStream = 2, ///< stream id already open on this connection
  kBadDimensions = 3,   ///< frame dims outside protocol/server bounds
};

struct HelloAckMsg {
  std::uint64_t assigned_session = 0;  ///< service SessionId when accepted
  std::uint32_t status = 0;            ///< HelloStatus
  std::uint32_t shard = 0;             ///< session's shard; 0 if refused
};
inline constexpr std::size_t kHelloAckPayloadSize = 16;

/// The one FrameMsg::plane_format value: both planes at one byte per
/// channel. A Frame carrying any other value is malformed.
inline constexpr std::uint32_t kPlaneFormatsU8 = 0x3;

/// Fixed part of a Frame payload; `pixels` points at the planes
/// (transmitted then received, each width*height R,G,B byte triplets). The
/// trace_id sits between the dimensions and the planes.
struct FrameMsg {
  std::uint32_t frame_seq = 0;
  std::uint32_t plane_format = 0;
  std::uint64_t timestamp_us = 0;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::uint64_t trace_id = 0;
  const std::uint8_t* pixels = nullptr;
};
/// Fixed (pre-pixel) payload bytes of a Frame.
inline constexpr std::size_t kFramePayloadFixedSize = 32;

/// Payload bytes of a Frame message carrying a w x h pair.
[[nodiscard]] constexpr std::size_t frame_payload_size(std::size_t width,
                                                       std::size_t height) {
  return kFramePayloadFixedSize + 2 * width * height * 3;
}
/// Full wire size of a Frame message carrying a w x h pair.
[[nodiscard]] constexpr std::size_t frame_wire_size(std::size_t width,
                                                    std::size_t height) {
  return kHeaderSize + frame_payload_size(width, height);
}

struct VerdictMsg {
  std::uint32_t window_index = 0;
  std::uint8_t verdict = 0;  ///< core::Verdict numeric value
  std::uint8_t is_attacker = 0;
  std::uint16_t reserved = 0;
  double lof_score = 0.0;
  double push_to_verdict_s = 0.0;
  std::uint64_t trace_id = 0;  ///< trace of the window-completing frame
};
inline constexpr std::size_t kVerdictPayloadSize = 32;

struct HeartbeatMsg {
  std::uint64_t t_us = 0;
};
inline constexpr std::size_t kHeartbeatPayloadSize = 8;

enum class ByeReason : std::uint32_t {
  kNormal = 0,
  kServerShutdown = 1,
  kProtocolError = 2,
};

struct ByeMsg {
  std::uint32_t reason = 0;  ///< ByeReason
  std::uint32_t reserved = 0;
};
inline constexpr std::size_t kByePayloadSize = 8;

/// Snapshot text format carried by StatsRequest/StatsReply.
enum class StatsFormat : std::uint32_t {
  kJson = 0,
  kPrometheus = 1,
};

struct StatsRequestMsg {
  std::uint32_t format = 0;  ///< StatsFormat
  std::uint32_t reserved = 0;
};
inline constexpr std::size_t kStatsRequestPayloadSize = 8;

/// StatsReply payload: 8 fixed bytes then `text_len` bytes of UTF-8 text
/// (borrowed from the decode buffer, like frame pixels).
struct StatsReplyMsg {
  std::uint32_t format = 0;  ///< StatsFormat
  std::uint32_t reserved = 0;
  const std::uint8_t* text = nullptr;
  std::size_t text_len = 0;
};
inline constexpr std::size_t kStatsReplyFixedSize = 8;

// --- Encoders ------------------------------------------------------------
// Each writes one complete message into buf[0..cap) and returns its wire
// size, or 0 when cap is too small. No encoder allocates.

[[nodiscard]] std::size_t encode_hello(std::uint8_t* buf, std::size_t cap,
                                       std::uint64_t session_token,
                                       std::uint32_t stream_id,
                                       const HelloMsg& msg);
[[nodiscard]] std::size_t encode_hello_ack(std::uint8_t* buf, std::size_t cap,
                                           std::uint64_t session_token,
                                           std::uint32_t stream_id,
                                           const HelloAckMsg& msg);
/// Encodes the frame pair at one byte per channel. Returns 0, as for a
/// short buffer, when the images differ in size, are empty or exceed
/// kMaxFrameEdge, or when any channel is not an exact byte value: finite,
/// integral, in [0, 255] and not -0.0 (the scan stops at the first).
[[nodiscard]] std::size_t encode_frame(std::uint8_t* buf, std::size_t cap,
                                       std::uint64_t session_token,
                                       std::uint32_t stream_id,
                                       std::uint32_t frame_seq,
                                       std::uint64_t timestamp_us,
                                       const image::Image& transmitted,
                                       const image::Image& received,
                                       std::uint64_t trace_id = 0);
[[nodiscard]] std::size_t encode_verdict(std::uint8_t* buf, std::size_t cap,
                                         std::uint64_t session_token,
                                         std::uint32_t stream_id,
                                         const VerdictMsg& msg);
/// `flags` may carry kFlagEcho; unknown flag bits encode nothing.
[[nodiscard]] std::size_t encode_heartbeat(std::uint8_t* buf, std::size_t cap,
                                           std::uint64_t session_token,
                                           std::uint32_t stream_id,
                                           const HeartbeatMsg& msg,
                                           std::uint16_t flags = 0);
[[nodiscard]] std::size_t encode_bye(std::uint8_t* buf, std::size_t cap,
                                     std::uint64_t session_token,
                                     std::uint32_t stream_id,
                                     const ByeMsg& msg);
[[nodiscard]] std::size_t encode_stats_request(std::uint8_t* buf,
                                               std::size_t cap,
                                               std::uint64_t session_token,
                                               std::uint32_t stream_id,
                                               const StatsRequestMsg& msg);
[[nodiscard]] std::size_t encode_stats_reply(std::uint8_t* buf,
                                             std::size_t cap,
                                             std::uint64_t session_token,
                                             std::uint32_t stream_id,
                                             StatsFormat format,
                                             std::string_view text);
/// Wire size of a StatsReply carrying `text_len` bytes.
[[nodiscard]] constexpr std::size_t stats_reply_wire_size(
    std::size_t text_len) {
  return kHeaderSize + kStatsReplyFixedSize + text_len;
}

// --- Typed payload parsers -----------------------------------------------
// Each validates the view's type and exact payload size; false = malformed.

[[nodiscard]] bool parse_hello(const MessageView& view, HelloMsg* out);
[[nodiscard]] bool parse_hello_ack(const MessageView& view, HelloAckMsg* out);
/// Validates dimensions and plane_format against the payload length (a
/// Frame whose w*h does not account for its payload_len exactly, or whose
/// plane_format is not kPlaneFormatsU8, is malformed, even with a valid
/// CRC).
[[nodiscard]] bool parse_frame(const MessageView& view, FrameMsg* out);
[[nodiscard]] bool parse_verdict(const MessageView& view, VerdictMsg* out);
[[nodiscard]] bool parse_heartbeat(const MessageView& view, HeartbeatMsg* out);
[[nodiscard]] bool parse_bye(const MessageView& view, ByeMsg* out);
[[nodiscard]] bool parse_stats_request(const MessageView& view,
                                       StatsRequestMsg* out);
[[nodiscard]] bool parse_stats_reply(const MessageView& view,
                                     StatsReplyMsg* out);

/// Copies a parsed frame's planes into two caller-owned 8-bit images, byte
/// for byte. Reuses their storage when they already have the frame's
/// dimensions (the arena steady state — no allocation); resizes otherwise.
void frame_pixels_to_bytes(const FrameMsg& frame, image::ImageU8* transmitted,
                           image::ImageU8* received);

}  // namespace lumichat::wire
