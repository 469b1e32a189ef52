#include "wire/protocol.hpp"

#include <bit>
#include <cstring>

#include "wire/crc32.hpp"

namespace lumichat::wire {
namespace {

// A frame plane is narrowed from image::Pixel storage read as a flat array
// of doubles, which is only valid while a Pixel is exactly three packed
// doubles.
static_assert(sizeof(image::Pixel) == 3 * sizeof(double),
              "wire frame payload assumes packed {r,g,b} doubles");

constexpr std::size_t kCrcCoverageInHeader = 20;  // bytes [0,20): all but crc

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
void put_f64(std::uint8_t* p, double v) {
  // Doubles travel as their IEEE-754 little-endian bytes: lossless, and the
  // native representation on every supported target.
  std::memcpy(p, &v, sizeof v);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}
double get_f64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

bool known_version(std::uint8_t v) { return v == kProtocolVersion; }

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kStatsReply);
}

bool known_flags(std::uint16_t flags) {
  return (flags & static_cast<std::uint16_t>(~kKnownFlags)) == 0;
}

/// Writes the header (with the CRC over header[0,20)+payload already folded
/// in) for a message whose payload bytes sit at buf + kHeaderSize.
void seal_header(std::uint8_t* buf, std::size_t payload_len, MsgType type,
                 std::uint64_t session_token, std::uint32_t stream_id,
                 std::uint16_t flags = 0) {
  put_u32(buf, static_cast<std::uint32_t>(payload_len));
  buf[4] = kProtocolVersion;
  buf[5] = static_cast<std::uint8_t>(type);
  put_u16(buf + 6, flags);
  put_u64(buf + 8, session_token);
  put_u32(buf + 16, stream_id);
  const std::uint32_t crc = crc32_final(crc32_update(
      crc32_update(kCrc32Init, buf, kCrcCoverageInHeader),
      buf + kHeaderSize, payload_len));
  put_u32(buf + 20, crc);
}

/// True when the view is a `type` message with exactly `payload_len` bytes.
bool expect(const MessageView& view, MsgType type, std::size_t payload_len) {
  return view.header.type == type && view.payload_len == payload_len;
}

/// Channels per block of the plane loop (16 pixels). Full blocks go
/// through a local buffer: a fixed trip count and a buffer that cannot alias
/// the image let the compiler vectorize them at -O2 as well.
constexpr std::size_t kPlaneBlock = 48;

/// Writes channels v[0, n) as one byte each into out[0, n) and returns a
/// word that is zero exactly when every channel is an exact byte value: its
/// byte widens back to the identical IEEE bits, so it is finite, integral,
/// in [0, 255] and not -0.0.
///
/// The test is branch-free so the loop vectorizes: adding 2^52 rounds x to
/// an integer whose value lands in the low mantissa bits, so
///   q = bits(x + 2^52) - bits(2^52)   is that integer when 0 <= x < 2^52,
/// and x is exact iff q <= 255 and (x + 2^52) - 2^52 has x's very bits. A
/// fraction rounds away, -0.0 comes back as +0.0, a subnormal as 0, and a
/// negative or huge value (infinities and NaNs too) leaves q far above 255.
/// (Needs IEEE double arithmetic — no -ffast-math, which would fold the
/// round trip away.)
std::uint64_t narrow_channels(const double* v, std::size_t n,
                              std::uint8_t* out) {
  constexpr double kTwo52 = 0x1p52;
  constexpr std::uint64_t kTwo52Bits = std::bit_cast<std::uint64_t>(kTwo52);
  std::uint64_t inexact = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double y = v[k] + kTwo52;
    const std::uint64_t q = std::bit_cast<std::uint64_t>(y) - kTwo52Bits;
    inexact |= (std::bit_cast<std::uint64_t>(y - kTwo52) ^
                std::bit_cast<std::uint64_t>(v[k])) |
               (q >> 8);
    out[k] = static_cast<std::uint8_t>(q);
  }
  return inexact;
}

/// Writes `img` as one byte per channel into out[0, 3 * pixels) and returns
/// true when narrow_channels finds every channel exact. Returns false
/// (leaving `out` partly written) at the first block holding any other
/// value, so a frame that is not 8-bit stops within its first pixels.
bool put_plane(const image::Image& img, std::uint8_t* out) {
  const auto* v = reinterpret_cast<const double*>(img.data());
  const std::size_t n = img.pixels().size() * 3;
  std::size_t i = 0;
  for (; i + kPlaneBlock <= n; i += kPlaneBlock) {
    std::uint8_t bytes[kPlaneBlock];
    if (narrow_channels(v + i, kPlaneBlock, bytes) != 0) return false;
    std::memcpy(out + i, bytes, kPlaneBlock);
  }
  return narrow_channels(v + i, n - i, out + i) == 0;
}

}  // namespace

DecodeStatus decode_message(const std::uint8_t* data, std::size_t len,
                            MessageView* out) {
  if (len < kHeaderSize) {
    // Validate whatever header prefix is present so a poisoned stream is
    // rejected at the earliest byte, not after buffering kMaxPayload.
    if (len >= 5 && !known_version(data[4])) return DecodeStatus::kMalformed;
    if (len >= 6 && !known_type(data[5])) return DecodeStatus::kMalformed;
    if (len >= 4 && get_u32(data) > kMaxPayload) return DecodeStatus::kMalformed;
    return DecodeStatus::kNeedMore;
  }

  MessageHeader header;
  header.payload_len = get_u32(data);
  header.version = data[4];
  const std::uint8_t raw_type = data[5];
  header.flags = get_u16(data + 6);
  header.session_token = get_u64(data + 8);
  header.stream_id = get_u32(data + 16);
  header.crc32 = get_u32(data + 20);

  if (!known_version(header.version)) return DecodeStatus::kMalformed;
  if (!known_type(raw_type)) return DecodeStatus::kMalformed;
  header.type = static_cast<MsgType>(raw_type);
  if (!known_flags(header.flags)) return DecodeStatus::kMalformed;
  if (header.payload_len > kMaxPayload) return DecodeStatus::kMalformed;

  const std::size_t total = kHeaderSize + header.payload_len;
  if (len < total) return DecodeStatus::kNeedMore;

  const std::uint32_t crc = crc32_final(crc32_update(
      crc32_update(kCrc32Init, data, kCrcCoverageInHeader),
      data + kHeaderSize, header.payload_len));
  if (crc != header.crc32) return DecodeStatus::kMalformed;

  out->header = header;
  out->payload = data + kHeaderSize;
  out->payload_len = header.payload_len;
  out->wire_size = total;
  return DecodeStatus::kOk;
}

std::size_t encode_hello(std::uint8_t* buf, std::size_t cap,
                         std::uint64_t session_token, std::uint32_t stream_id,
                         const HelloMsg& msg) {
  const std::size_t total = kHeaderSize + kHelloPayloadSize;
  if (cap < total) return 0;
  std::uint8_t* p = buf + kHeaderSize;
  put_u32(p, msg.frame_width);
  put_u32(p + 4, msg.frame_height);
  put_u64(p + 8, msg.client_nonce);
  seal_header(buf, kHelloPayloadSize, MsgType::kHello, session_token,
              stream_id);
  return total;
}

std::size_t encode_hello_ack(std::uint8_t* buf, std::size_t cap,
                             std::uint64_t session_token,
                             std::uint32_t stream_id, const HelloAckMsg& msg) {
  const std::size_t total = kHeaderSize + kHelloAckPayloadSize;
  if (cap < total) return 0;
  std::uint8_t* p = buf + kHeaderSize;
  put_u64(p, msg.assigned_session);
  put_u32(p + 8, msg.status);
  put_u32(p + 12, msg.shard);
  seal_header(buf, kHelloAckPayloadSize, MsgType::kHelloAck, session_token,
              stream_id);
  return total;
}

std::size_t encode_frame(std::uint8_t* buf, std::size_t cap,
                         std::uint64_t session_token, std::uint32_t stream_id,
                         std::uint32_t frame_seq, std::uint64_t timestamp_us,
                         const image::Image& transmitted,
                         const image::Image& received,
                         std::uint64_t trace_id) {
  if (transmitted.width() != received.width() ||
      transmitted.height() != received.height() || transmitted.empty()) {
    return 0;
  }
  const std::size_t w = transmitted.width();
  const std::size_t h = transmitted.height();
  if (w > kMaxFrameEdge || h > kMaxFrameEdge) return 0;
  const std::size_t total = frame_wire_size(w, h);
  if (cap < total) return 0;
  std::uint8_t* planes = buf + kHeaderSize + kFramePayloadFixedSize;
  if (!put_plane(transmitted, planes) ||
      !put_plane(received, planes + w * h * 3)) {
    return 0;
  }

  std::uint8_t* p = buf + kHeaderSize;
  put_u32(p, frame_seq);
  put_u32(p + 4, kPlaneFormatsU8);
  put_u64(p + 8, timestamp_us);
  put_u32(p + 16, static_cast<std::uint32_t>(w));
  put_u32(p + 20, static_cast<std::uint32_t>(h));
  put_u64(p + 24, trace_id);
  seal_header(buf, total - kHeaderSize, MsgType::kFrame, session_token,
              stream_id);
  return total;
}

std::size_t encode_verdict(std::uint8_t* buf, std::size_t cap,
                           std::uint64_t session_token,
                           std::uint32_t stream_id, const VerdictMsg& msg) {
  const std::size_t total = kHeaderSize + kVerdictPayloadSize;
  if (cap < total) return 0;
  std::uint8_t* p = buf + kHeaderSize;
  put_u32(p, msg.window_index);
  p[4] = msg.verdict;
  p[5] = msg.is_attacker;
  put_u16(p + 6, 0);
  put_f64(p + 8, msg.lof_score);
  put_f64(p + 16, msg.push_to_verdict_s);
  put_u64(p + 24, msg.trace_id);
  seal_header(buf, kVerdictPayloadSize, MsgType::kVerdict, session_token,
              stream_id);
  return total;
}

std::size_t encode_heartbeat(std::uint8_t* buf, std::size_t cap,
                             std::uint64_t session_token,
                             std::uint32_t stream_id, const HeartbeatMsg& msg,
                             std::uint16_t flags) {
  if (!known_flags(flags)) return 0;
  const std::size_t total = kHeaderSize + kHeartbeatPayloadSize;
  if (cap < total) return 0;
  put_u64(buf + kHeaderSize, msg.t_us);
  seal_header(buf, kHeartbeatPayloadSize, MsgType::kHeartbeat, session_token,
              stream_id, flags);
  return total;
}

std::size_t encode_bye(std::uint8_t* buf, std::size_t cap,
                       std::uint64_t session_token, std::uint32_t stream_id,
                       const ByeMsg& msg) {
  const std::size_t total = kHeaderSize + kByePayloadSize;
  if (cap < total) return 0;
  put_u32(buf + kHeaderSize, msg.reason);
  put_u32(buf + kHeaderSize + 4, 0);
  seal_header(buf, kByePayloadSize, MsgType::kBye, session_token, stream_id);
  return total;
}

std::size_t encode_stats_request(std::uint8_t* buf, std::size_t cap,
                                 std::uint64_t session_token,
                                 std::uint32_t stream_id,
                                 const StatsRequestMsg& msg) {
  const std::size_t total = kHeaderSize + kStatsRequestPayloadSize;
  if (cap < total) return 0;
  put_u32(buf + kHeaderSize, msg.format);
  put_u32(buf + kHeaderSize + 4, 0);
  seal_header(buf, kStatsRequestPayloadSize, MsgType::kStatsRequest,
              session_token, stream_id);
  return total;
}

std::size_t encode_stats_reply(std::uint8_t* buf, std::size_t cap,
                               std::uint64_t session_token,
                               std::uint32_t stream_id, StatsFormat format,
                               std::string_view text) {
  const std::size_t payload = kStatsReplyFixedSize + text.size();
  if (payload > kMaxPayload) return 0;
  const std::size_t total = kHeaderSize + payload;
  if (cap < total) return 0;
  std::uint8_t* p = buf + kHeaderSize;
  put_u32(p, static_cast<std::uint32_t>(format));
  put_u32(p + 4, 0);
  if (!text.empty()) {
    std::memcpy(p + kStatsReplyFixedSize, text.data(), text.size());
  }
  seal_header(buf, payload, MsgType::kStatsReply, session_token, stream_id);
  return total;
}

bool parse_hello(const MessageView& view, HelloMsg* out) {
  if (!expect(view, MsgType::kHello, kHelloPayloadSize)) return false;
  out->frame_width = get_u32(view.payload);
  out->frame_height = get_u32(view.payload + 4);
  out->client_nonce = get_u64(view.payload + 8);
  return true;
}

bool parse_hello_ack(const MessageView& view, HelloAckMsg* out) {
  if (!expect(view, MsgType::kHelloAck, kHelloAckPayloadSize)) return false;
  out->assigned_session = get_u64(view.payload);
  out->status = get_u32(view.payload + 8);
  out->shard = get_u32(view.payload + 12);
  return true;
}

bool parse_frame(const MessageView& view, FrameMsg* out) {
  if (view.header.type != MsgType::kFrame ||
      view.payload_len < kFramePayloadFixedSize) {
    return false;
  }
  out->frame_seq = get_u32(view.payload);
  out->plane_format = get_u32(view.payload + 4);
  out->timestamp_us = get_u64(view.payload + 8);
  out->width = get_u32(view.payload + 16);
  out->height = get_u32(view.payload + 20);
  out->trace_id = get_u64(view.payload + 24);
  if (out->width == 0 || out->height == 0 || out->width > kMaxFrameEdge ||
      out->height > kMaxFrameEdge || out->plane_format != kPlaneFormatsU8) {
    return false;
  }
  // The announced dimensions must account for the payload exactly — a
  // mismatch means a forged length field that a CRC alone cannot catch.
  if (view.payload_len != frame_payload_size(out->width, out->height)) {
    return false;
  }
  out->pixels = view.payload + kFramePayloadFixedSize;
  return true;
}

bool parse_verdict(const MessageView& view, VerdictMsg* out) {
  if (!expect(view, MsgType::kVerdict, kVerdictPayloadSize)) return false;
  out->window_index = get_u32(view.payload);
  out->verdict = view.payload[4];
  out->is_attacker = view.payload[5];
  out->reserved = get_u16(view.payload + 6);
  out->lof_score = get_f64(view.payload + 8);
  out->push_to_verdict_s = get_f64(view.payload + 16);
  out->trace_id = get_u64(view.payload + 24);
  return true;
}

bool parse_heartbeat(const MessageView& view, HeartbeatMsg* out) {
  if (!expect(view, MsgType::kHeartbeat, kHeartbeatPayloadSize)) return false;
  out->t_us = get_u64(view.payload);
  return true;
}

bool parse_bye(const MessageView& view, ByeMsg* out) {
  if (!expect(view, MsgType::kBye, kByePayloadSize)) return false;
  out->reason = get_u32(view.payload);
  out->reserved = get_u32(view.payload + 4);
  return true;
}

bool parse_stats_request(const MessageView& view, StatsRequestMsg* out) {
  if (!expect(view, MsgType::kStatsRequest, kStatsRequestPayloadSize)) {
    return false;
  }
  out->format = get_u32(view.payload);
  out->reserved = get_u32(view.payload + 4);
  return true;
}

bool parse_stats_reply(const MessageView& view, StatsReplyMsg* out) {
  if (view.header.type != MsgType::kStatsReply ||
      view.payload_len < kStatsReplyFixedSize) {
    return false;
  }
  out->format = get_u32(view.payload);
  out->reserved = get_u32(view.payload + 4);
  out->text = view.payload + kStatsReplyFixedSize;
  out->text_len = view.payload_len - kStatsReplyFixedSize;
  return true;
}

void frame_pixels_to_bytes(const FrameMsg& frame, image::ImageU8* transmitted,
                           image::ImageU8* received) {
  const std::size_t w = frame.width;
  const std::size_t h = frame.height;
  for (image::ImageU8* plane : {transmitted, received}) {
    if (plane->width() != w || plane->height() != h) {
      *plane = image::ImageU8(w, h);
    }
  }
  const std::size_t bytes = transmitted->size_bytes();
  std::memcpy(transmitted->data(), frame.pixels, bytes);
  std::memcpy(received->data(), frame.pixels + bytes, bytes);
}

}  // namespace lumichat::wire
