// Socket-fed counterpart of service::run_load: the same deterministic chat
// population, but every frame crosses a real socketpair as wire bytes
// instead of being handed to the SessionManager in-process.
//
// The harness builds K socketpair connections (session ordinal -> connection
// ordinal % K, stream id ordinal + 1), opens one wire stream per simulated
// chat, and drives the same make_chat_source frame streams run_load drives —
// encode, flush, server poll, client poll interleaved on one thread so
// neither side ever blocks on a full kernel buffer. Verdicts come back as
// wire messages and are collected per stream; the returned LoadReport is
// therefore directly comparable, field by field, with an in-process
// run_load of the same spec — the end-to-end gate asserts the per-session
// verdict sequences are bit-identical.
//
// Caveat: run_load equivalence holds while spec.ticks_per_pump stays within
// the session queue capacity (no drop-oldest on either path). The harness
// pumps more often than run_load's per-stride cadence, so once queues
// overflow the two paths shed different frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "model/registry.hpp"
#include "obs/flight_recorder.hpp"
#include "service/load_generator.hpp"

namespace lumichat::wire {

struct SocketLoadOptions {
  /// Socketpair connections the sessions are multiplexed over.
  std::size_t n_connections = 8;
  /// When non-empty, the server additionally listens on this Unix-domain
  /// socket so an external monitor (lumichat_stat) can poll a live run.
  std::string listen_path;
  /// Borrowed flight recorder attached to the manager, whose server records
  /// protocol errors into it and flushes its dumps (null off).
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Every N drive blocks connection 0 sends a heartbeat ping (an RTT
  /// sample for the report's wire.heartbeat_rtt) — 0 disables.
  std::size_t heartbeat_every = 0;
  /// Every N drive blocks connection 0 requests a JSON stats snapshot —
  /// 0 disables. The last reply lands in *last_stats_json when set.
  std::size_t stats_every = 0;
  std::string* last_stats_json = nullptr;
};

/// Arena jobs run_socket_load gives its WireServer so that no poll cycle
/// outgrows the pool: what one read chunk per connection can decode, plus
/// slack.
[[nodiscard]] std::size_t socket_arena_jobs(std::size_t n_connections,
                                            std::size_t read_chunk,
                                            std::size_t frame_width,
                                            std::size_t frame_height);

/// Runs `spec` through a WireServer over socketpairs. Sessions appear in
/// ordinal order; ids are the server-assigned session ids.
/// `pool` feeds the FrameScheduler (nullptr drains inline on the driving
/// thread). Setup failures throw rather than
/// return a report: std::runtime_error when options.listen_path cannot be
/// listened on or the server refuses a connection, std::system_error when
/// a socketpair cannot be made, std::invalid_argument when the spec's
/// duration is not a tick count (chat::tick_count).
[[nodiscard]] service::LoadReport run_socket_load(
    const service::LoadSpec& spec,
    const service::ServiceConfig& service_config,
    const core::StreamingConfig& streaming,
    std::shared_ptr<model::ModelRegistry> models,
    const SocketLoadOptions& options = {}, common::ThreadPool* pool = nullptr);

}  // namespace lumichat::wire
