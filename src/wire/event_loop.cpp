#include "wire/event_loop.hpp"

#include <cerrno>
#include <cstdint>
#include <system_error>

#include <sys/epoll.h>
#include <unistd.h>

namespace lumichat::wire {
namespace {

/// Per-wait dispatch batch. Ready fds beyond the batch simply surface on
/// the next wait() — epoll is used level-triggered.
constexpr std::size_t kEventBatch = 64;

::epoll_event interest(int fd, bool want_read, bool want_write) {
  ::epoll_event ev{};
  ev.events = (want_read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = fd;
  return ev;
}

}  // namespace

EventLoop::EventLoop() : epfd_(::epoll_create1(0)) {
  if (epfd_ < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "EventLoop: epoll_create1");
  }
  events_.resize(kEventBatch);
}

EventLoop::~EventLoop() { ::close(epfd_); }

bool EventLoop::add(int fd, bool want_read, bool want_write) {
  if (fd < 0) return false;
  ::epoll_event ev = interest(fd, want_read, want_write);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  ++n_watched_;
  return true;
}

bool EventLoop::modify(int fd, bool want_read, bool want_write) {
  ::epoll_event ev = interest(fd, want_read, want_write);
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

bool EventLoop::remove(int fd) {
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) != 0) return false;
  --n_watched_;
  return true;
}

std::size_t EventLoop::wait(int timeout_ms) {
  ::epoll_event ready[kEventBatch];
  const int n =
      ::epoll_wait(epfd_, ready, static_cast<int>(kEventBatch), timeout_ms);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    Event& out = events_[static_cast<std::size_t>(i)];
    out.fd = ready[i].data.fd;
    out.readable = (ready[i].events & EPOLLIN) != 0;
    out.writable = (ready[i].events & EPOLLOUT) != 0;
    out.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
  }
  return static_cast<std::size_t>(n);
}

}  // namespace lumichat::wire
