#include "wire/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace lumichat::wire {

WireClient::WireClient(int fd, std::size_t expected_events) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  acks_.reserve(expected_events);
  verdicts_.reserve(expected_events);
  byes_.reserve(expected_events);
}

std::uint64_t WireClient::now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

template <typename EncodeFn>
std::size_t WireClient::queue(std::size_t wire_size, EncodeFn&& encode) {
  out_.ensure_writable(wire_size);
  const std::size_t n = encode(out_.write_ptr(), wire_size);
  out_.commit(n);
  return n;
}

void WireClient::hello(std::uint64_t token, std::uint32_t stream_id,
                       std::uint32_t frame_width, std::uint32_t frame_height,
                       std::uint64_t nonce) {
  HelloMsg msg;
  msg.frame_width = frame_width;
  msg.frame_height = frame_height;
  msg.client_nonce = nonce;
  queue(kHeaderSize + kHelloPayloadSize,
        [&](std::uint8_t* buf, std::size_t cap) {
          return encode_hello(buf, cap, token, stream_id, msg);
        });
}

void WireClient::send_frame(std::uint64_t token, std::uint32_t stream_id,
                            std::uint32_t frame_seq,
                            std::uint64_t timestamp_us,
                            const image::Image& transmitted,
                            const image::Image& received,
                            std::uint64_t trace_id) {
  const std::size_t w = transmitted.width();
  const std::size_t h = transmitted.height();
  if (received.width() != w || received.height() != h || w == 0 || h == 0 ||
      w > kMaxFrameEdge || h > kMaxFrameEdge) {
    throw std::invalid_argument(
        "WireClient::send_frame: the planes must be equally sized, non-empty "
        "and at most kMaxFrameEdge on a side");
  }
  // A pair with a non-byte channel commits nothing: the outgoing buffer is
  // left as it was.
  if (queue(frame_wire_size(w, h), [&](std::uint8_t* buf, std::size_t cap) {
        return encode_frame(buf, cap, token, stream_id, frame_seq,
                            timestamp_us, transmitted, received, trace_id);
      }) == 0) {
    throw std::invalid_argument(
        "WireClient::send_frame: every channel must be an integer in "
        "[0, 255] (8-bit video)");
  }
}

void WireClient::heartbeat(std::uint64_t token, std::uint32_t stream_id,
                           std::uint64_t t_us) {
  HeartbeatMsg msg;
  msg.t_us = t_us;
  queue(kHeaderSize + kHeartbeatPayloadSize,
        [&](std::uint8_t* buf, std::size_t cap) {
          return encode_heartbeat(buf, cap, token, stream_id, msg);
        });
}

void WireClient::heartbeat_ping(std::uint64_t token, std::uint32_t stream_id) {
  heartbeat(token, stream_id, now_us());
}

void WireClient::request_stats(std::uint64_t token, std::uint32_t stream_id,
                               StatsFormat format) {
  StatsRequestMsg msg;
  msg.format = static_cast<std::uint32_t>(format);
  queue(kHeaderSize + kStatsRequestPayloadSize,
        [&](std::uint8_t* buf, std::size_t cap) {
          return encode_stats_request(buf, cap, token, stream_id, msg);
        });
}

void WireClient::bye(std::uint64_t token, std::uint32_t stream_id,
                     ByeReason reason) {
  ByeMsg msg;
  msg.reason = static_cast<std::uint32_t>(reason);
  queue(kHeaderSize + kByePayloadSize,
        [&](std::uint8_t* buf, std::size_t cap) {
          return encode_bye(buf, cap, token, stream_id, msg);
        });
}

bool WireClient::flush() {
  while (out_.readable() > 0) {
    const ssize_t n =
        ::send(fd_, out_.read_ptr(), out_.readable(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    failed_ = true;
    return false;
  }
  return true;
}

std::size_t WireClient::poll() {
  constexpr std::size_t kChunk = 64 * 1024;
  for (;;) {
    in_.ensure_writable(kChunk);
    const ssize_t n =
        ::recv(fd_, in_.write_ptr(), std::min(in_.writable(), kChunk), 0);
    if (n > 0) {
      in_.commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < kChunk) break;  // drained the socket
      continue;
    }
    if (n == 0) failed_ = true;  // server hung up mid-conversation
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      failed_ = true;
    }
    break;
  }

  std::size_t decoded = 0;
  while (in_.readable() > 0) {
    MessageView msg;
    const DecodeStatus st = decode_message(in_.read_ptr(), in_.readable(), &msg);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kMalformed) {
      failed_ = true;
      in_.clear();
      break;
    }
    switch (msg.header.type) {
      case MsgType::kHelloAck: {
        AckEvent ev;
        ev.stream_id = msg.header.stream_id;
        if (parse_hello_ack(msg, &ev.ack)) acks_.push_back(ev);
        break;
      }
      case MsgType::kVerdict: {
        VerdictEvent ev;
        ev.stream_id = msg.header.stream_id;
        if (parse_verdict(msg, &ev.verdict)) verdicts_.push_back(ev);
        break;
      }
      case MsgType::kHeartbeat: {
        ++heartbeats_;
        HeartbeatMsg hb;
        // A flagged echo carries back our own heartbeat_ping() steady-clock
        // stamp: now - t_us is the socket round trip (plus one server poll).
        if ((msg.header.flags & kFlagEcho) != 0 && parse_heartbeat(msg, &hb)) {
          const std::uint64_t now = now_us();
          if (now >= hb.t_us) {
            heartbeat_rtt_.record(static_cast<double>(now - hb.t_us) * 1e-6);
          }
        }
        break;
      }
      case MsgType::kStatsReply: {
        StatsReplyMsg reply;
        if (parse_stats_reply(msg, &reply) &&
            reply.format <=
                static_cast<std::uint32_t>(StatsFormat::kPrometheus)) {
          StatsEvent ev;
          ev.stream_id = msg.header.stream_id;
          ev.format = static_cast<StatsFormat>(reply.format);
          ev.text.assign(reinterpret_cast<const char*>(reply.text),
                         reply.text_len);
          stats_.push_back(std::move(ev));
        }
        break;
      }
      case MsgType::kBye: {
        ByeEvent ev;
        ev.stream_id = msg.header.stream_id;
        if (parse_bye(msg, &ev.bye)) byes_.push_back(ev);
        break;
      }
      default:
        failed_ = true;  // client-to-server message echoed back: corrupt
        break;
    }
    ++decoded;
    in_.consume(msg.wire_size);
  }
  return decoded;
}

namespace {

/// Moves the first min(max, v.size()) elements of `v` into `out` and slides
/// the remainder down (memmove — no allocation).
template <typename T>
std::size_t take_prefix(std::vector<T>& v, T* out, std::size_t max) {
  const std::size_t n = std::min(max, v.size());
  std::copy(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n), out);
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

}  // namespace

std::size_t WireClient::take_acks(AckEvent* out, std::size_t max) {
  return take_prefix(acks_, out, max);
}
std::size_t WireClient::take_verdicts(VerdictEvent* out, std::size_t max) {
  return take_prefix(verdicts_, out, max);
}
std::size_t WireClient::take_byes(ByeEvent* out, std::size_t max) {
  return take_prefix(byes_, out, max);
}

std::vector<StatsEvent> WireClient::take_stats() {
  std::vector<StatsEvent> out;
  out.swap(stats_);
  return out;
}

}  // namespace lumichat::wire
