// Wire-fed ingestion front-end for the verification service.
//
// A WireServer owns a set of non-blocking connections (adopted socketpair
// ends, or sockets accepted from a Unix-domain listener), speaks the binary
// protocol of protocol.hpp on each, and bridges decoded frames into a
// SessionManager. One connection multiplexes many streams — each Hello
// opens one (stream_id scopes it within the connection), so ten thousand
// concurrent chats ride on a handful of sockets instead of ten thousand
// fds.
//
// Single-threaded by design: every poll() call runs one full cycle on the
// caller's thread —
//
//   wait -> accept/read -> decode+dispatch -> scheduler pump ->
//   verdict flush -> write -> idle sweep
//
// so the server needs no locking of its own (the SessionManager underneath
// is already thread-safe, and the FrameScheduler may still fan drains out
// over a pool). Frames decode into FrameArena-pooled jobs; in steady state
// the ingest path performs no heap allocation per frame (see arena.hpp and
// the alloc-gate test).
//
// Session admission: every accepted Hello creates its session through
// SessionManager::create(), like an in-process caller, and the HelloAck
// reports the shard whose table holds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/session_manager.hpp"
#include "wire/arena.hpp"
#include "wire/buffer.hpp"
#include "wire/event_loop.hpp"
#include "wire/protocol.hpp"

namespace lumichat::wire {

struct WireServerConfig {
  /// Accepted + adopted connections past this are refused.
  std::size_t max_connections = 64;
  /// Connections silent for longer are closed by the idle sweep; 0 never
  /// expires.
  double idle_timeout_s = 30.0;
  /// Bytes asked of recv() per readable connection per cycle.
  std::size_t read_chunk = 64 * 1024;
  /// Frame geometry the arena pools. Hellos with other (valid) dimensions
  /// are accepted but their frames bypass pooled reuse.
  std::size_t frame_width = 8;
  std::size_t frame_height = 8;
  /// Jobs pre-constructed in the arena. Size at peak in-flight frames
  /// (streams x queue capacity) to keep recycle() from shedding.
  std::size_t arena_initial = 256;
  /// Verdicts copied out per stream per cycle (bounds the stack buffer).
  std::size_t verdict_flush_max = 16;
};

class WireServer {
 public:
  /// `manager` and the optional `scheduler` are borrowed and must outlive
  /// the server. When a scheduler is given, poll() pumps it once per cycle
  /// (the manager should have it attached); otherwise feeds drain inline.
  /// The server's wire.* counters and histograms live in the manager's
  /// registry. When the manager has a flight recorder attached, protocol
  /// errors record marker entries into it, and poll() gives it one
  /// maybe_auto_dump() opportunity per cycle — triggers recorded anywhere
  /// (including by sessions) get flushed from here, off the hot path.
  WireServer(service::SessionManager& manager,
             service::FrameScheduler* scheduler, WireServerConfig config = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Takes ownership of a connected socket (e.g. one end of a socketpair).
  /// The fd is switched to non-blocking. False at max_connections.
  bool adopt(int fd);

  /// Binds and listens on a Unix-domain socket at `path` (unlinking any
  /// stale socket file first). False on any socket/bind/listen failure.
  bool listen_unix(const std::string& path);

  /// One full event cycle; blocks at most `timeout_ms` in the waiter.
  /// Returns the number of frames ingested this cycle.
  std::size_t poll(int timeout_ms);

  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }
  [[nodiscard]] std::size_t stream_count() const { return n_streams_; }
  [[nodiscard]] FrameArena& arena() { return arena_; }

  /// The full telemetry plane as one point-in-time snapshot: the manager's
  /// registry (service.* and wire.* instruments), the scheduler's counters,
  /// the service.sessions_active gauge, the model-registry version/publish
  /// count, and per-shard session-count gauges. This is what the Stats wire
  /// request serves; exposed directly so embedders can export it.
  [[nodiscard]] obs::RegistrySnapshot stats_snapshot() const;

  /// stats_snapshot() rendered as JSON or Prometheus text exposition.
  [[nodiscard]] std::string stats_text(StatsFormat format) const;

 private:
  struct StreamState {
    service::SessionId session = 0;
    std::uint64_t token = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::size_t verdicts_sent = 0;  ///< flush watermark
    std::uint64_t frames = 0;
    /// Bye received: fully flush remaining verdicts, then evict.
    bool closing = false;
  };

  struct Connection {
    int fd = -1;
    ByteBuffer in;
    ByteBuffer out;
    std::unordered_map<std::uint32_t, StreamState> streams;
    service::ServiceClock::time_point last_activity{};
    bool closing = false;     ///< protocol error: flush out, then drop
    bool want_write = false;  ///< current write interest in the loop
  };

  void accept_ready();
  /// Reads whatever the socket has, decodes complete messages, dispatches.
  std::size_t service_readable(Connection& conn);
  std::size_t dispatch(Connection& conn, const MessageView& msg);
  void on_hello(Connection& conn, const MessageView& msg);
  bool on_frame(Connection& conn, const MessageView& msg);
  void on_bye(Connection& conn, const MessageView& msg);
  void on_heartbeat(Connection& conn, const MessageView& msg);
  void on_stats_request(Connection& conn, const MessageView& msg);
  /// Sends each stream's new verdicts; live streams are only looked at
  /// when `scan_live` (closing ones always flush and get their Bye).
  void flush_verdicts(Connection& conn, bool scan_live);
  void flush_writes(Connection& conn);
  void protocol_error(Connection& conn);
  void close_connection(int fd);
  void sweep_idle();

  service::SessionManager& manager_;
  service::FrameScheduler* scheduler_;  ///< borrowed; may be null
  WireServerConfig config_;
  EventLoop loop_;
  FrameArena arena_;
  int listen_fd_ = -1;
  std::string listen_path_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::size_t n_streams_ = 0;
  /// copy_verdicts staging, sized to verdict_flush_max at construction.
  std::vector<service::WindowVerdict> verdict_buf_;
  std::vector<int> doomed_;  ///< per-cycle close list (reused)
  /// service.windows_completed when live streams were last scanned for
  /// verdicts, and whether that scan left a full batch behind on a stream.
  std::uint64_t windows_scanned_ = 0;
  bool verdict_backlog_ = false;

  // Resolved once from the manager's registry. Steady-state frames bump
  // these and never touch the registry mutex (the no-lookup-per-frame test
  // pins this).
  obs::Counter& frames_in_;
  obs::Counter& verdicts_out_;
  obs::Counter& malformed_;
  obs::Counter& hellos_;
  obs::Counter& rejects_;
  obs::Counter& idle_closed_;
  obs::Counter& stats_served_;
  obs::Counter& windows_completed_;  ///< the manager's, read once per cycle
  obs::LogHistogram& push_to_verdict_;
  obs::LogHistogram& poll_cycle_;
  obs::LogHistogram& stage_decode_;
  obs::LogHistogram& stage_enqueue_;
  obs::LogHistogram& stage_push_;
};

}  // namespace lumichat::wire
