#include "wire/arena.hpp"

#include <utility>

namespace lumichat::wire {

FrameArena::FrameArena(std::size_t width, std::size_t height,
                       std::size_t initial)
    : width_(width), height_(height) {
  free_.reserve(initial == 0 ? 16 : initial);
  for (std::size_t i = 0; i < initial; ++i) {
    free_.push_back(make_job());
    ++allocated_;
  }
}

service::FrameJob FrameArena::make_job() const {
  service::FrameJob job;
  job.transmitted_u8 = image::ImageU8(width_, height_);
  job.received_u8 = image::ImageU8(width_, height_);
  return job;
}

service::FrameJob FrameArena::acquire() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      service::FrameJob job = std::move(free_.back());
      free_.pop_back();
      job.recycler = this;
      return job;
    }
    ++allocated_;
  }
  // Pool miss: construct outside the lock (image allocation is the slow
  // part, and nothing below touches shared state).
  service::FrameJob job = make_job();
  job.recycler = this;
  return job;
}

void FrameArena::recycle(service::FrameJob&& job) noexcept {
  job.recycler = nullptr;
  const auto fits = [this](const auto& plane) {
    return plane.width() == width_ && plane.height() == height_;
  };
  if (!fits(job.transmitted_u8) || !fits(job.received_u8)) {
    return;  // foreign geometry — let it die rather than poison the pool
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ++recycled_total_;
  if (free_.size() == free_.capacity()) {
    // Growing the freelist would allocate inside recycle(), which runs on
    // the detector's drain path. Dropping the job instead keeps recycle()
    // allocation-free; the pool simply re-warms on the next acquire burst.
    return;
  }
  free_.push_back(std::move(job));
}

FrameArena::Stats FrameArena::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return Stats{allocated_, free_.size(), recycled_total_};
}

}  // namespace lumichat::wire
