#include "wire/socket_load.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "chat/session.hpp"
#include "common/thread_pool.hpp"
#include "core/voting.hpp"
#include "wire/client.hpp"
#include "wire/routing.hpp"
#include "wire/server.hpp"

namespace lumichat::wire {
namespace {

/// Per-simulated-chat client-side state.
struct Chat {
  std::size_t ordinal = 0;
  std::size_t conn = 0;           ///< owning connection index
  std::uint32_t stream_id = 0;    ///< ordinal + 1
  std::uint64_t token = 0;        ///< session token
  bool attacker = false;
  bool admitted = false;
  service::SessionId session = 0;
  std::uint32_t seq = 0;
  std::unique_ptr<reenact::CallSource> source;
  std::vector<VerdictMsg> verdicts;  ///< as received off the wire
};

/// Drains every event class from `client`, crediting verdicts to chats.
/// Stats replies (monitoring traffic, not load traffic) land in
/// *last_stats_json when given.
void collect_events(WireClient& client, std::vector<Chat>& chats,
                    std::size_t* acked, std::size_t* rejected,
                    std::string* last_stats_json = nullptr) {
  constexpr std::size_t kBatch = 64;
  AckEvent acks[kBatch];
  VerdictEvent verdicts[kBatch];
  ByeEvent byes[kBatch];
  for (std::size_t n = client.take_acks(acks, kBatch); n > 0;
       n = client.take_acks(acks, kBatch)) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t ordinal = acks[i].stream_id - 1;
      if (ordinal >= chats.size()) continue;
      ++*acked;
      if (acks[i].ack.status ==
          static_cast<std::uint32_t>(HelloStatus::kAccepted)) {
        chats[ordinal].admitted = true;
        chats[ordinal].session = acks[i].ack.assigned_session;
      } else {
        ++*rejected;
      }
    }
  }
  for (std::size_t n = client.take_verdicts(verdicts, kBatch); n > 0;
       n = client.take_verdicts(verdicts, kBatch)) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t ordinal = verdicts[i].stream_id - 1;
      if (ordinal < chats.size()) {
        chats[ordinal].verdicts.push_back(verdicts[i].verdict);
      }
    }
  }
  // Byes only arrive on teardown paths the harness does not take; drain
  // them anyway so the event queue cannot grow.
  while (client.take_byes(byes, kBatch) > 0) {
  }
  for (StatsEvent& ev : client.take_stats()) {
    if (last_stats_json != nullptr) *last_stats_json = std::move(ev.text);
  }
}

}  // namespace

std::size_t socket_arena_jobs(std::size_t n_connections,
                              std::size_t read_chunk, std::size_t frame_width,
                              std::size_t frame_height) {
  // Peak in-flight jobs per cycle: one read chunk of frames per connection
  // (the per-cycle pump drains everything fed before the next read).
  return n_connections *
             (read_chunk / frame_wire_size(frame_width, frame_height) + 2) +
         64;
}

service::LoadReport run_socket_load(const service::LoadSpec& spec,
                                    const service::ServiceConfig& service_cfg,
                                    const core::StreamingConfig& streaming,
                                    std::shared_ptr<model::ModelRegistry> models,
                                    const SocketLoadOptions& options,
                                    common::ThreadPool* pool) {
  const std::size_t total_ticks =
      chat::tick_count(spec.duration_s, spec.sample_rate_hz);
  service::LoadReport report;
  service::SessionManager manager(service_cfg, streaming, std::move(models));
  service::FrameScheduler scheduler(pool);
  manager.attach_scheduler(&scheduler);
  if (options.flight_recorder != nullptr) {
    manager.attach_flight_recorder(options.flight_recorder);
  }

  // Client-side population, mirroring run_load's admission order.
  std::vector<Chat> chats(spec.n_sessions);
  for (std::size_t i = 0; i < spec.n_sessions; ++i) {
    chats[i].ordinal = i;
    chats[i].stream_id = static_cast<std::uint32_t>(i + 1);
    chats[i].token = mix64(spec.master_seed ^ (i + 1));
    chats[i].attacker = service::load_session_is_attacker(spec, i);
  }
  {
    // Chat construction fans out, exactly as in run_load.
    common::for_each_index(pool, chats.size(), [&](std::size_t c) {
      chats[c].source =
          service::make_chat_source(spec, chats[c].ordinal, chats[c].attacker);
    });
  }
  if (chats.empty()) return report;

  // The arena pools the sources' actual frame geometry (probed from a
  // throwaway ordinal-0 source so the run's own streams stay untouched).
  std::size_t frame_w = 8;
  std::size_t frame_h = 8;
  {
    const chat::FramePair probe =
        service::make_chat_source(spec, 0, chats[0].attacker)->next();
    frame_w = probe.transmitted.width();
    frame_h = probe.transmitted.height();
  }

  const std::size_t n_conns =
      std::max<std::size_t>(1, std::min(options.n_connections, chats.size()));
  WireServerConfig server_cfg;
  // The side door needs admission headroom beyond the load connections, or
  // accept_ready() would turn every monitor away at capacity.
  server_cfg.max_connections =
      n_conns + (options.listen_path.empty() ? 0 : 4);
  server_cfg.idle_timeout_s = 0.0;  // the driving thread controls pacing
  server_cfg.frame_width = frame_w;
  server_cfg.frame_height = frame_h;
  server_cfg.arena_initial = socket_arena_jobs(n_conns, server_cfg.read_chunk,
                                              frame_w, frame_h);
  WireServer server(manager, &scheduler, server_cfg);
  // Live-monitoring side door: lumichat_stat connects here and speaks
  // Stats requests while the load runs.
  if (!options.listen_path.empty() &&
      !server.listen_unix(options.listen_path)) {
    throw std::runtime_error("run_socket_load: cannot listen on " +
                             options.listen_path);
  }

  std::vector<std::unique_ptr<WireClient>> clients;
  clients.reserve(n_conns);
  for (std::size_t c = 0; c < n_conns; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "run_socket_load: socketpair");
    }
    if (!server.adopt(sv[0])) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("run_socket_load: server refused a connection");
    }
    clients.push_back(std::make_unique<WireClient>(sv[1], 1024));
  }
  for (Chat& chat : chats) chat.conn = chat.ordinal % n_conns;

  // --- Handshake: one Hello per chat, acks drained until all answered ----
  for (Chat& chat : chats) {
    clients[chat.conn]->hello(chat.token, chat.stream_id,
                              static_cast<std::uint32_t>(frame_w),
                              static_cast<std::uint32_t>(frame_h),
                              chat.ordinal);
  }
  std::size_t acked = 0;
  std::size_t rejected = 0;
  std::size_t stall = 0;
  while (acked < chats.size() && stall < 10000) {
    bool progress = false;
    for (auto& client : clients) {
      progress |= client->pending_out() > 0;
      client->flush();
    }
    (void)server.poll(0);
    const std::size_t before = acked;
    for (auto& client : clients) {
      client->poll();
      collect_events(*client, chats, &acked, &rejected,
                     options.last_stats_json);
    }
    stall = (progress || acked != before) ? 0 : stall + 1;
  }

  // --- Drive loop: generate -> encode -> flush/poll interleave -----------
  const std::size_t stride = std::max<std::size_t>(1, spec.ticks_per_pump);

  // Monitoring traffic (heartbeats, stats requests) rides connection 0 on
  // behalf of its first admitted chat — monitoring shares the data plane.
  const Chat* monitor = nullptr;
  for (const Chat& chat : chats) {
    if (chat.conn == 0 && chat.admitted) {
      monitor = &chat;
      break;
    }
  }

  std::size_t sent = 0;
  std::size_t ingested = 0;
  std::size_t block = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total_ticks; done += stride, ++block) {
    const std::size_t ticks = std::min(stride, total_ticks - done);
    if (monitor != nullptr) {
      if (options.heartbeat_every > 0 && block % options.heartbeat_every == 0) {
        clients[0]->heartbeat_ping(monitor->token, monitor->stream_id);
      }
      if (options.stats_every > 0 && block % options.stats_every == 0) {
        clients[0]->request_stats(monitor->token, monitor->stream_id,
                                  StatsFormat::kJson);
      }
    }
    // Generation phase fans out per connection (each client's buffer has
    // exactly one writer); chats within a connection advance in ordinal
    // order, so every stream's bytes hit the wire in feed order.
    common::for_each_index(pool, n_conns, [&](std::size_t c) {
      for (Chat& chat : chats) {
        if (chat.conn != c || !chat.admitted) continue;
        for (std::size_t k = 0; k < ticks; ++k) {
          chat::FramePair pair = chat.source->next();
          const auto t_us = static_cast<std::uint64_t>(
              std::llround(pair.t_sec * 1e6));
          // Deterministic per-frame trace id: a pure function of the stream
          // token and sequence number, so traced and untraced runs stay
          // bit-identical and a recorder entry names its frame exactly.
          const std::uint32_t seq = chat.seq++;
          clients[c]->send_frame(chat.token, chat.stream_id, seq, t_us,
                                 pair.transmitted, pair.received,
                                 mix64(chat.token ^ seq));
        }
      }
    });
    for (const Chat& chat : chats) {
      if (chat.admitted) sent += ticks;
    }
    // Interleaved drain: flush what the sockets accept, let the server
    // read/feed/pump, collect verdicts, repeat until this block is fully
    // ingested (socketpair buffers are far smaller than a block's bytes).
    stall = 0;
    while (ingested < sent && stall < 10000) {
      bool progress = false;
      for (auto& client : clients) {
        progress |= client->pending_out() > 0;
        client->flush();
      }
      const std::size_t got = server.poll(0);
      ingested += got;
      for (auto& client : clients) {
        client->poll();
        collect_events(*client, chats, &acked, &rejected,
                     options.last_stats_json);
      }
      stall = (progress || got > 0) ? 0 : stall + 1;
    }
  }

  // --- Verdict drain: every completed window must cross the wire ---------
  stall = 0;
  while (stall < 10000) {
    bool behind = false;
    for (const Chat& chat : chats) {
      if (chat.admitted &&
          chat.verdicts.size() < manager.verdict_count(chat.session)) {
        behind = true;
        break;
      }
    }
    if (!behind) break;
    (void)server.poll(0);
    std::size_t got = 0;
    for (auto& client : clients) {
      got += client->poll();
      collect_events(*client, chats, &acked, &rejected,
                     options.last_stats_json);
    }
    stall = got > 0 ? 0 : stall + 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- Report, in ordinal order over admitted chats -----------------------
  report.sessions.reserve(chats.size());
  for (Chat& chat : chats) {
    if (!chat.admitted) continue;
    service::SessionResult result;
    result.id = chat.session;
    result.truth_attacker = chat.attacker;
    for (const VerdictMsg& v : chat.verdicts) {
      result.window_verdicts.push_back(v.is_attacker != 0);
      result.verdicts.push_back(static_cast<core::Verdict>(v.verdict));
      if (static_cast<core::Verdict>(v.verdict) == core::Verdict::kAbstain) {
        ++result.windows_abstained;
      }
      result.lof_scores.push_back(v.lof_score);
    }
    // Final accounting comes from the service directly — the wire protocol
    // streams per-window verdicts, not the closing vote.
    if (const auto closed = manager.evict(chat.session)) {
      result.final_verdict = closed->verdict;
      result.pending_samples_dropped = closed->pending_samples_dropped;
    }
    report.sessions.push_back(std::move(result));
  }
  report.sessions_rejected = rejected;
  report.frames_fed = ingested;
  report.elapsed_s = elapsed;
  report.metrics = manager.metrics_snapshot();
  report.stats = server.stats_snapshot();
  // Monitoring pings ride connection 0, so its client holds every RTT.
  report.stats.add_histogram("wire.heartbeat_rtt", clients[0]->heartbeat_rtt());
  // The evictions above fire after the server's last poll cycle, so any
  // armed trigger they tripped has had no flush pass yet — give the
  // recorder the one the server would have given it next cycle.
  if (options.flight_recorder != nullptr) {
    (void)options.flight_recorder->maybe_auto_dump();
  }
  return report;
}

}  // namespace lumichat::wire
