#include "wire/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lumichat::wire {
namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

WireServer::WireServer(service::SessionManager& manager,
                       service::FrameScheduler* scheduler,
                       WireServerConfig config)
    : manager_(manager),
      scheduler_(scheduler),
      config_(config),
      arena_(config.frame_width, config.frame_height, config.arena_initial),
      frames_in_(manager.metrics().counter("wire.frames_in")),
      verdicts_out_(manager.metrics().counter("wire.verdicts_out")),
      malformed_(manager.metrics().counter("wire.malformed")),
      hellos_(manager.metrics().counter("wire.hellos")),
      rejects_(manager.metrics().counter("wire.hello_rejects")),
      idle_closed_(manager.metrics().counter("wire.idle_closed")),
      stats_served_(manager.metrics().counter("wire.stats_served")),
      windows_completed_(
          manager.metrics().counter("service.windows_completed")),
      push_to_verdict_(manager.metrics().histogram("wire.push_to_verdict")),
      poll_cycle_(manager.metrics().histogram("wire.poll_cycle")),
      stage_decode_(manager.metrics().histogram("wire.stage.decode")),
      stage_enqueue_(manager.metrics().histogram("wire.stage.enqueue")),
      stage_push_(manager.metrics().histogram("wire.stage.push")) {
  if (config_.verdict_flush_max == 0) config_.verdict_flush_max = 1;
  verdict_buf_.resize(config_.verdict_flush_max);
}

WireServer::~WireServer() {
  for (auto& [fd, conn] : connections_) {
    for (auto& [sid, stream] : conn->streams) {
      (void)sid;
      (void)manager_.evict(stream.session);
    }
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
  }
}

bool WireServer::adopt(int fd) {
  if (fd < 0 || connections_.size() >= config_.max_connections) return false;
  if (!set_nonblocking(fd)) return false;
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->last_activity = service::ServiceClock::now();
  if (!loop_.add(fd, /*want_read=*/true, /*want_write=*/false)) return false;
  connections_.emplace(fd, std::move(conn));
  return true;
}

bool WireServer::listen_unix(const std::string& path) {
  if (listen_fd_ >= 0 || path.empty()) return false;
  ::sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  ::unlink(path.c_str());  // stale socket file from a previous run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const ::sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }
  if (!loop_.add(fd, /*want_read=*/true, /*want_write=*/false)) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  listen_path_ = path;
  return true;
}

void WireServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error — try again next cycle
    if (!adopt(fd)) ::close(fd);
  }
}

std::size_t WireServer::poll(int timeout_ms) {
  const obs::ScopedMetricsTimer cycle_timer(poll_cycle_);
  std::size_t frames = 0;
  doomed_.clear();

  const std::size_t n_ready = loop_.wait(timeout_ms);
  for (std::size_t i = 0; i < n_ready; ++i) {
    const Event& ev = loop_.event(i);
    if (ev.fd == listen_fd_) {
      if (ev.readable) accept_ready();
      continue;
    }
    const auto it = connections_.find(ev.fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    if (ev.error) {
      doomed_.push_back(ev.fd);
      continue;
    }
    if (ev.readable && !conn.closing) frames += service_readable(conn);
    if (ev.writable) flush_writes(conn);
  }

  // Detection phase: everything fed this cycle drains to a verdict before
  // the flush below, so a Bye that followed its stream's last frame in the
  // same read batch still sees every verdict delivered.
  if (scheduler_ != nullptr) scheduler_->pump();

  // A live stream has a verdict to send only if a window completed since
  // the last scan (the pump above returned after every drain finished, so
  // the counter is current) or that scan stopped at a full batch.
  const std::uint64_t windows = windows_completed_.value();
  const bool scan_live = verdict_backlog_ || windows != windows_scanned_;
  windows_scanned_ = windows;
  verdict_backlog_ = false;
  for (auto& [fd, conn] : connections_) {
    flush_verdicts(*conn, scan_live);
    flush_writes(*conn);
    if (conn->closing && conn->out.readable() == 0) doomed_.push_back(fd);
  }

  sweep_idle();

  for (const int fd : doomed_) close_connection(fd);

  // Any trigger recorded this cycle — by a session's drain on a pool
  // worker, or by protocol_error above — flushes the ring here, where a
  // file write cannot stall frame ingest mid-cycle.
  if (obs::FlightRecorder* recorder = manager_.flight_recorder()) {
    (void)recorder->maybe_auto_dump();
  }
  return frames;
}

std::size_t WireServer::service_readable(Connection& conn) {
  conn.in.ensure_writable(config_.read_chunk);
  const ssize_t n = ::recv(conn.fd, conn.in.write_ptr(),
                           std::min(conn.in.writable(), config_.read_chunk), 0);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR)) {
    doomed_.push_back(conn.fd);  // EOF or fatal socket error
    return 0;
  }
  if (n < 0) return 0;
  conn.in.commit(static_cast<std::size_t>(n));
  conn.last_activity = service::ServiceClock::now();

  std::size_t frames = 0;
  while (!conn.closing && conn.in.readable() > 0) {
    MessageView msg;
    const DecodeStatus st =
        decode_message(conn.in.read_ptr(), conn.in.readable(), &msg);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kMalformed) {
      protocol_error(conn);
      break;
    }
    frames += dispatch(conn, msg);
    conn.in.consume(msg.wire_size);
  }
  return frames;
}

std::size_t WireServer::dispatch(Connection& conn, const MessageView& msg) {
  switch (msg.header.type) {
    case MsgType::kHello:
      on_hello(conn, msg);
      return 0;
    case MsgType::kFrame:
      return on_frame(conn, msg) ? 1 : 0;
    case MsgType::kHeartbeat:
      on_heartbeat(conn, msg);
      return 0;
    case MsgType::kStatsRequest:
      on_stats_request(conn, msg);
      return 0;
    case MsgType::kBye:
      on_bye(conn, msg);
      return 0;
    case MsgType::kHelloAck:
    case MsgType::kVerdict:
    case MsgType::kStatsReply:
      // Server-to-client messages arriving at the server: the peer is not
      // speaking the client side of the protocol.
      protocol_error(conn);
      return 0;
  }
  protocol_error(conn);
  return 0;
}

void WireServer::on_heartbeat(Connection& conn, const MessageView& msg) {
  HeartbeatMsg hb;
  if (!parse_heartbeat(msg, &hb)) {
    protocol_error(conn);
    return;
  }
  // An already-echoed heartbeat (kFlagEcho set) terminates here — echoing
  // it back again would ping-pong forever between two peers.
  if ((msg.header.flags & kFlagEcho) != 0) return;
  // The echo flag lets the client tell its own reflected timestamp from a
  // peer's ping and compute the round-trip time (wire.heartbeat_rtt).
  const std::size_t total = kHeaderSize + kHeartbeatPayloadSize;
  conn.out.ensure_writable(total);
  conn.out.commit(encode_heartbeat(conn.out.write_ptr(), total,
                                   msg.header.session_token,
                                   msg.header.stream_id, hb, kFlagEcho));
}

void WireServer::on_stats_request(Connection& conn, const MessageView& msg) {
  StatsRequestMsg req;
  if (!parse_stats_request(msg, &req) ||
      req.format > static_cast<std::uint32_t>(StatsFormat::kPrometheus)) {
    protocol_error(conn);
    return;
  }
  const auto format = static_cast<StatsFormat>(req.format);
  const std::string text = stats_text(format);
  const std::size_t total = stats_reply_wire_size(text.size());
  conn.out.ensure_writable(total);
  conn.out.commit(encode_stats_reply(conn.out.write_ptr(), total,
                                     msg.header.session_token,
                                     msg.header.stream_id, format, text));
  stats_served_.add();
}

obs::RegistrySnapshot WireServer::stats_snapshot() const {
  obs::RegistrySnapshot s = manager_.metrics().snapshot();
  if (scheduler_ != nullptr) scheduler_->append_counters(s);
  s.set_gauge("service.sessions_active",
              static_cast<double>(manager_.active_sessions()));
  // Model plane: which snapshot version verdicts are being scored against,
  // and how many publishes the registry has seen.
  const auto& models = manager_.models();
  if (models != nullptr) {
    s.set_gauge("model.version", static_cast<double>(models->version()));
    s.add_counter("model.publishes", models->publish_count());
  }
  const std::vector<std::size_t> shard_counts =
      manager_.shard_session_counts();
  char name[64];
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    std::snprintf(name, sizeof(name), "service.shard.%03zu.sessions", i);
    s.set_gauge(name, static_cast<double>(shard_counts[i]));
  }
  return s;
}

std::string WireServer::stats_text(StatsFormat format) const {
  const obs::RegistrySnapshot s = stats_snapshot();
  return format == StatsFormat::kPrometheus ? s.to_prometheus() : s.to_json();
}

void WireServer::on_hello(Connection& conn, const MessageView& msg) {
  HelloMsg hello;
  if (!parse_hello(msg, &hello)) {
    protocol_error(conn);
    return;
  }
  hellos_.add();

  HelloAckMsg ack;  // a refused Hello reports shard 0
  if (conn.streams.count(msg.header.stream_id) != 0) {
    ack.status = static_cast<std::uint32_t>(HelloStatus::kDuplicateStream);
  } else if (hello.frame_width == 0 || hello.frame_height == 0 ||
             hello.frame_width > kMaxFrameEdge ||
             hello.frame_height > kMaxFrameEdge) {
    ack.status = static_cast<std::uint32_t>(HelloStatus::kBadDimensions);
  } else if (const auto id = manager_.create()) {
    ack.status = static_cast<std::uint32_t>(HelloStatus::kAccepted);
    ack.assigned_session = *id;
    ack.shard = static_cast<std::uint32_t>(manager_.shard_index(*id));
    StreamState stream;
    stream.session = *id;
    stream.token = msg.header.session_token;
    stream.width = hello.frame_width;
    stream.height = hello.frame_height;
    conn.streams.emplace(msg.header.stream_id, stream);
    ++n_streams_;
  } else {
    ack.status = static_cast<std::uint32_t>(HelloStatus::kRejected);
    rejects_.add();
  }

  const std::size_t total = kHeaderSize + kHelloAckPayloadSize;
  conn.out.ensure_writable(total);
  conn.out.commit(encode_hello_ack(conn.out.write_ptr(), total,
                                   msg.header.session_token,
                                   msg.header.stream_id, ack));
}

bool WireServer::on_frame(Connection& conn, const MessageView& msg) {
  const auto it = conn.streams.find(msg.header.stream_id);
  if (it == conn.streams.end() || it->second.closing) {
    protocol_error(conn);  // frames for a stream that was never opened
    return false;
  }
  FrameMsg frame;
  if (!parse_frame(msg, &frame)) {
    protocol_error(conn);
    return false;
  }

  const service::ServiceClock::time_point t_decode_start =
      service::ServiceClock::now();

  // Pool hit when the frame matches the arena geometry (the steady state);
  // a renegotiated size decodes into a plainly owned job instead.
  service::FrameJob job =
      (frame.width == arena_.width() && frame.height == arena_.height())
          ? arena_.acquire()
          : service::FrameJob{};
  // The pair stays 8-bit through the detector.
  job.eight_bit = true;
  frame_pixels_to_bytes(frame, &job.transmitted_u8, &job.received_u8);
  job.t_sec = static_cast<double>(frame.timestamp_us) * 1e-6;
  job.trace_id = frame.trace_id;
  job.enqueued_at = service::ServiceClock::now();
  job.decode_s =
      std::chrono::duration<double>(job.enqueued_at - t_decode_start).count();
  stage_decode_.record(job.decode_s);
  const service::ServiceClock::time_point t_enqueue_start = job.enqueued_at;
  (void)manager_.feed(it->second.session, std::move(job));
  stage_enqueue_.record(std::chrono::duration<double>(
                            service::ServiceClock::now() - t_enqueue_start)
                            .count());
  ++it->second.frames;
  frames_in_.add();
  return true;
}

void WireServer::on_bye(Connection& conn, const MessageView& msg) {
  ByeMsg bye;
  if (!parse_bye(msg, &bye)) {
    protocol_error(conn);
    return;
  }
  const auto it = conn.streams.find(msg.header.stream_id);
  if (it != conn.streams.end()) {
    // Stream close: deliver the remaining verdicts first (flush_verdicts
    // evicts closing streams once their watermark catches up).
    it->second.closing = true;
    return;
  }
  // Bye for no particular stream closes the whole connection.
  for (auto& [sid, stream] : conn.streams) {
    (void)sid;
    stream.closing = true;
  }
  conn.closing = true;
}

void WireServer::flush_verdicts(Connection& conn, bool scan_live) {
  for (auto it = conn.streams.begin(); it != conn.streams.end();) {
    StreamState& stream = it->second;
    if (!scan_live && !stream.closing) {
      ++it;
      continue;
    }
    // Closing streams flush everything; live streams flush one batch per
    // cycle so a chatty session cannot starve the rest of the connection.
    std::size_t copied = 0;
    do {
      copied = manager_.copy_verdicts(stream.session, stream.verdicts_sent,
                                      verdict_buf_.data(), verdict_buf_.size());
      if (copied == 0) break;
      // One clock read per flushed batch times the push stage (verdict
      // completed in the drain -> encoded onto the socket).
      const service::ServiceClock::time_point t_push =
          service::ServiceClock::now();
      for (std::size_t i = 0; i < copied; ++i) {
        const service::WindowVerdict& w = verdict_buf_[i];
        VerdictMsg out;
        out.window_index = static_cast<std::uint32_t>(w.window_index);
        out.verdict = static_cast<std::uint8_t>(w.verdict);
        out.is_attacker = w.is_attacker ? 1 : 0;
        out.lof_score = w.lof_score;
        out.push_to_verdict_s = w.push_to_verdict_s;
        out.trace_id = w.trace_id;
        const std::size_t total = kHeaderSize + kVerdictPayloadSize;
        conn.out.ensure_writable(total);
        conn.out.commit(encode_verdict(conn.out.write_ptr(), total,
                                       stream.token, it->first, out));
        push_to_verdict_.record(w.push_to_verdict_s);
        stage_push_.record(
            std::chrono::duration<double>(t_push - w.completed_at).count());
      }
      stream.verdicts_sent += copied;
      verdicts_out_.add(copied);
    } while (stream.closing);
    if (copied == verdict_buf_.size()) verdict_backlog_ = true;

    if (stream.closing) {
      // Watermark has caught up with every completed window; acknowledge
      // the close and tear the session down.
      (void)manager_.evict(stream.session);
      const std::size_t total = kHeaderSize + kByePayloadSize;
      conn.out.ensure_writable(total);
      ByeMsg bye;
      bye.reason = static_cast<std::uint32_t>(ByeReason::kNormal);
      conn.out.commit(encode_bye(conn.out.write_ptr(), total, stream.token,
                                 it->first, bye));
      it = conn.streams.erase(it);
      --n_streams_;
    } else {
      ++it;
    }
  }
}

void WireServer::flush_writes(Connection& conn) {
  while (conn.out.readable() > 0) {
    const ssize_t n = ::send(conn.fd, conn.out.read_ptr(),
                             conn.out.readable(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        loop_.modify(conn.fd, /*want_read=*/true, /*want_write=*/true);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    doomed_.push_back(conn.fd);
    return;
  }
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(conn.fd, /*want_read=*/true, /*want_write=*/false);
  }
}

void WireServer::protocol_error(Connection& conn) {
  if (conn.closing) return;
  malformed_.add();
  if (obs::FlightRecorder* recorder = manager_.flight_recorder()) {
    obs::FlightEntry entry;
    entry.kind = obs::FlightKind::kProtocolError;
    entry.stream_id = static_cast<std::uint32_t>(conn.fd);
    recorder->record(static_cast<std::size_t>(conn.fd) % recorder->lanes(),
                     entry);
  }
  // After a framing error byte boundaries are lost: stop decoding, send a
  // best-effort Bye, flush what is queued, then drop the connection. The
  // sessions behind its streams are evicted at close.
  conn.in.clear();
  const std::size_t total = kHeaderSize + kByePayloadSize;
  conn.out.ensure_writable(total);
  ByeMsg bye;
  bye.reason = static_cast<std::uint32_t>(ByeReason::kProtocolError);
  conn.out.commit(encode_bye(conn.out.write_ptr(), total, 0, 0, bye));
  conn.closing = true;
}

void WireServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  for (auto& [sid, stream] : it->second->streams) {
    (void)sid;
    (void)manager_.evict(stream.session);
    --n_streams_;
  }
  loop_.remove(fd);
  ::close(fd);
  connections_.erase(it);
}

void WireServer::sweep_idle() {
  if (config_.idle_timeout_s <= 0.0) return;
  const auto now = service::ServiceClock::now();
  for (const auto& [fd, conn] : connections_) {
    const double idle =
        std::chrono::duration<double>(now - conn->last_activity).count();
    if (idle > config_.idle_timeout_s) {
      doomed_.push_back(fd);
      idle_closed_.add();
    }
  }
}

}  // namespace lumichat::wire
