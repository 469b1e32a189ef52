// Pooled frame storage for the zero-allocation ingest path.
//
// The wire server decodes every Frame message into a FrameJob drawn from
// this arena; after the detector has consumed the job, ServiceSession calls
// release_frame_job() which routes the storage back here through the
// FrameRecycler interface. Once the pool has warmed up to the peak number
// of in-flight frames, the same two 8-bit planes per job cycle
//
//     acquire -> decode-into -> queue -> detector -> recycle -> acquire ...
//
// forever, and steady-state push-to-verdict performs no heap allocation
// per frame (asserted by the alloc-gate test, which instruments global
// operator new).
//
// The arena is sized for one frame geometry. Jobs that come back with
// different image dimensions (a client renegotiated its stream size) are
// dropped instead of pooled, so the freelist never hands out storage that
// would force the decoder to reallocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "service/session.hpp"

namespace lumichat::wire {

class FrameArena final : public service::FrameRecycler {
 public:
  /// Pool for `width` x `height` frame pairs; `initial` jobs are
  /// pre-constructed up front so the first frames are pool hits too.
  FrameArena(std::size_t width, std::size_t height, std::size_t initial = 0);

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// A job with both 8-bit planes sized to the pool geometry and recycler
  /// set to this arena. Its f64 images stay empty: wire frames are 8-bit.
  /// Pops the freelist when possible; allocates a new job only when every
  /// pooled job is in flight (pool growth, not steady state).
  [[nodiscard]] service::FrameJob acquire();

  /// FrameRecycler: returns a job's storage to the freelist. Safe from any
  /// thread; never throws. Wrong-geometry jobs are destroyed instead.
  void recycle(service::FrameJob&& job) noexcept override;

  struct Stats {
    std::size_t allocated_frames = 0;  ///< jobs ever constructed
    std::size_t free_frames = 0;       ///< jobs currently pooled
    std::uint64_t recycled_total = 0;  ///< lifetime recycle() count
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }

 private:
  [[nodiscard]] service::FrameJob make_job() const;

  const std::size_t width_;
  const std::size_t height_;

  mutable std::mutex mu_;
  std::vector<service::FrameJob> free_;  // guarded by mu_
  std::size_t allocated_ = 0;            // guarded by mu_
  std::uint64_t recycled_total_ = 0;     // guarded by mu_
};

}  // namespace lumichat::wire
