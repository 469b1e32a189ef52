// The zero-allocation gate: steady-state frame ingestion through the FULL
// socketpair path — client encode, kernel round-trip, server decode into an
// arena job, inline detector drain, arena recycle — must perform exactly
// zero heap allocations and zero frees per frame.
//
// This file replaces global operator new/delete with counting versions, so
// it gets its own test binary (linking it into the main suites would count
// every other test's traffic too). The measured region covers intra-window
// frames only: window *completion* runs the batch pipeline (preprocessing,
// feature extraction, verdict history push) which allocates by design, and
// happens once per window_s seconds, not per frame. The gate warms one full
// window first so every buffer on the path (wire buffers, arena pool, ring
// queue, drain batch, detector sample buffers) has reached its plateau.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "image/image.hpp"
#include "obs/metrics.hpp"
#include "service/session_manager.hpp"
#include "wire/client.hpp"
#include "wire/server.hpp"

#include "../service/service_test_util.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Kept out of line: once GCC 12 inlines std::free into the replaced
// operator delete it reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(ptr);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (::posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*)
                                                       : alignment,
                       size == 0 ? alignment : size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}

namespace lumichat::wire {
namespace {

using service::testutil::test_streaming_config;
using service::testutil::trained_registry;

// Warm-up: one complete window (test config: 10 Hz x 2 s = 20 frames) plus
// a few frames into the next. Measured: intra-window frames 25..34 (window 1
// completes at frame 39, far past the measurement).
constexpr std::uint32_t kWarmFrames = 25;
constexpr std::uint32_t kMeasuredFrames = 10;

struct GateResult {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t warm_frames_in = 0;  ///< wire.frames_in after the warm-up
  std::uint64_t frames_in = 0;
  std::uint64_t recycled = 0;
  std::size_t bytes_per_frame = 0;  ///< one measured frame's wire size
};

/// Streams constant `tx`/`rx` frames over a socketpair and counts the heap
/// traffic of the measured intra-window frames into `result`. Setup
/// failures are fatal; call through ASSERT_NO_FATAL_FAILURE.
void run_gate(const image::Image& tx, const image::Image& rx,
              GateResult* result) {
  service::ServiceConfig service_cfg;
  service_cfg.n_shards = 2;
  service_cfg.max_sessions = 4;
  service_cfg.session_queue_capacity = 32;
  // No scheduler: feeds drain inline on the poll thread. (ThreadPool::post
  // wraps each task in a std::function, which allocates — the zero-alloc
  // deployment shape is the single-threaded ingest loop.)
  service::SessionManager manager(service_cfg, test_streaming_config(),
                                  trained_registry());

  WireServerConfig server_cfg;
  server_cfg.max_connections = 2;
  server_cfg.idle_timeout_s = 0.0;
  server_cfg.frame_width = 8;
  server_cfg.frame_height = 8;
  server_cfg.arena_initial = 4;
  WireServer server(manager, nullptr, server_cfg);
  obs::MetricsRegistry& registry = manager.metrics();

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(server.adopt(sv[0]));
  WireClient client(sv[1]);

  auto pump_one_frame = [&](std::uint32_t seq) {
    const std::size_t before = client.pending_out();
    client.send_frame(/*token=*/5, /*stream_id=*/1, seq,
                      static_cast<std::uint64_t>(seq) * 100000, tx, rx);
    result->bytes_per_frame = client.pending_out() - before;
    client.flush();
    (void)server.poll(0);
    client.poll();
  };

  client.hello(5, 1, 8, 8);
  client.flush();
  (void)server.poll(0);
  client.poll();
  AckEvent ack;
  ASSERT_EQ(client.take_acks(&ack, 1), 1u);
  ASSERT_EQ(ack.ack.status, static_cast<std::uint32_t>(HelloStatus::kAccepted));

  // The warm-up is driven exactly like the measured loop so every buffer
  // reaches the same plateau it will hold under load.
  for (std::uint32_t seq = 0; seq < kWarmFrames; ++seq) pump_one_frame(seq);
  VerdictEvent verdict;
  ASSERT_EQ(client.take_verdicts(&verdict, 1), 1u);  // window 0 completed
  result->warm_frames_in = registry.counter("wire.frames_in").value();

  // Measured region. No gtest macros inside — the assertion machinery
  // itself allocates.
  g_allocs.store(0, std::memory_order_relaxed);
  g_frees.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (std::uint32_t seq = kWarmFrames; seq < kWarmFrames + kMeasuredFrames;
       ++seq) {
    pump_one_frame(seq);
  }
  g_counting.store(false, std::memory_order_release);
  result->allocs = g_allocs.load(std::memory_order_relaxed);
  result->frees = g_frees.load(std::memory_order_relaxed);
  result->frames_in = registry.counter("wire.frames_in").value();
  result->recycled = server.arena().stats().recycled_total;
}

TEST(WireAllocGate, SteadyStateEightBitFramesAllocateNothing) {
  // Both planes travel as bytes and stay bytes through the pooled job's
  // planes and the detector.
  const image::Image tx(8, 8, image::Pixel{130.0, 110.0, 95.0});
  const image::Image rx(8, 8, image::Pixel{140.0, 100.0, 80.0});
  GateResult r;
  ASSERT_NO_FATAL_FAILURE(run_gate(tx, rx, &r));
  EXPECT_EQ(r.bytes_per_frame, frame_wire_size(8, 8));
  // Every warm-up frame was ingested before the measurement began, the
  // measured frames really went through the full path, and none of them
  // touched the heap.
  EXPECT_EQ(r.warm_frames_in, kWarmFrames);
  EXPECT_EQ(r.frames_in, kWarmFrames + kMeasuredFrames);
  EXPECT_EQ(r.recycled, kWarmFrames + kMeasuredFrames);
  EXPECT_EQ(r.allocs, 0u)
      << "steady-state frame path performed heap allocations";
  EXPECT_EQ(r.frees, 0u) << "steady-state frame path performed heap frees";
}

}  // namespace
}  // namespace lumichat::wire
