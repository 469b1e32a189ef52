// ByteBuffer steady-state behaviour and FrameArena pooling.
#include <cstdint>

#include <gtest/gtest.h>

#include "wire/arena.hpp"
#include "wire/buffer.hpp"

namespace lumichat::wire {
namespace {

TEST(ByteBuffer, AppendConsumeRoundTrip) {
  ByteBuffer buf(16);
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  buf.append(data, sizeof(data));
  ASSERT_EQ(buf.readable(), sizeof(data));
  EXPECT_EQ(buf.read_ptr()[0], 1);
  buf.consume(2);
  EXPECT_EQ(buf.readable(), 3u);
  EXPECT_EQ(buf.read_ptr()[0], 3);
  buf.consume(3);
  EXPECT_EQ(buf.readable(), 0u);
}

TEST(ByteBuffer, CompactReclaimsConsumedPrefix) {
  ByteBuffer buf(8);
  const std::uint8_t data[] = {10, 20, 30, 40, 50, 60};
  buf.append(data, sizeof(data));
  buf.consume(4);
  buf.compact();
  ASSERT_EQ(buf.readable(), 2u);
  EXPECT_EQ(buf.read_ptr()[0], 50);
  EXPECT_EQ(buf.read_ptr()[1], 60);
  // The reclaimed prefix is writable again without growth.
  EXPECT_GE(buf.writable(), 6u);
}

TEST(ByteBuffer, SteadyTrafficNeverGrowsCapacity) {
  ByteBuffer buf(64);
  std::uint8_t chunk[48];
  for (std::size_t i = 0; i < sizeof(chunk); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i);
  }
  buf.append(chunk, sizeof(chunk));
  buf.consume(sizeof(chunk));
  const std::size_t plateau = buf.capacity();
  // Partial consumes force compaction, not growth.
  for (int cycle = 0; cycle < 1000; ++cycle) {
    buf.append(chunk, sizeof(chunk));
    buf.consume(sizeof(chunk) - 5);
    buf.consume(5);
  }
  EXPECT_EQ(buf.capacity(), plateau);
}

TEST(ByteBuffer, EnsureWritableGrowsWhenDataGenuinelyExceeds) {
  ByteBuffer buf(8);
  const std::uint8_t data[32] = {};
  buf.append(data, sizeof(data));
  EXPECT_GE(buf.capacity(), 32u);
  EXPECT_EQ(buf.readable(), 32u);
}

TEST(FrameArena, AcquireRecycleCyclesOneAllocation) {
  FrameArena arena(8, 8, 1);
  EXPECT_EQ(arena.stats().allocated_frames, 1u);
  for (int i = 0; i < 100; ++i) {
    service::FrameJob job = arena.acquire();
    EXPECT_EQ(job.transmitted_u8.width(), 8u);
    EXPECT_EQ(job.received_u8.height(), 8u);
    // Wire frames are 8-bit: a pooled job carries no f64 storage.
    EXPECT_TRUE(job.transmitted.empty());
    EXPECT_TRUE(job.received.empty());
    EXPECT_EQ(job.recycler, &arena);
    service::release_frame_job(std::move(job));
  }
  const FrameArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.allocated_frames, 1u);  // the same job cycled throughout
  EXPECT_EQ(stats.free_frames, 1u);
  EXPECT_EQ(stats.recycled_total, 100u);
}

TEST(FrameArena, GrowsOnlyWhenPoolExhausted) {
  FrameArena arena(4, 4, 2);
  service::FrameJob a = arena.acquire();
  service::FrameJob b = arena.acquire();
  service::FrameJob c = arena.acquire();  // pool empty: true allocation
  EXPECT_EQ(arena.stats().allocated_frames, 3u);
  service::release_frame_job(std::move(a));
  service::release_frame_job(std::move(b));
  service::release_frame_job(std::move(c));
  // All three count as recycled, but the freelist never grows inside
  // recycle() (that would allocate on the detector's drain path) — the
  // overflow job is dropped and the pool stays at its reserved capacity.
  EXPECT_EQ(arena.stats().recycled_total, 3u);
  EXPECT_EQ(arena.stats().free_frames, 2u);
}

TEST(FrameArena, ForeignGeometryJobsAreDroppedNotPooled) {
  FrameArena arena(8, 8, 1);
  service::FrameJob job = arena.acquire();
  job.transmitted_u8 = image::ImageU8(4, 4);  // client renegotiated its size
  service::release_frame_job(std::move(job));
  const FrameArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.free_frames, 0u);  // dropped: pooling it would hand out
                                     // storage the decoder must resize
  EXPECT_EQ(stats.recycled_total, 0u);  // a drop is not a recycle
}

TEST(FrameArena, ReleaseFrameJobIsIdempotent) {
  FrameArena arena(8, 8, 1);
  service::FrameJob job = arena.acquire();
  service::FrameJob stolen = std::move(job);
  service::release_frame_job(std::move(stolen));
  // The moved-from shell has a cleared recycler; releasing it is a no-op.
  service::release_frame_job(std::move(job));
  EXPECT_EQ(arena.stats().free_frames, 1u);
}

}  // namespace
}  // namespace lumichat::wire
