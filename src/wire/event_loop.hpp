// Readiness notification for the wire front-end.
//
// One EventLoop multiplexes every socket the server owns — the listener and
// all connections — behind a single wait() call: one level-triggered epoll
// instance with O(ready) dispatch. Results land in a preallocated Event
// array, so a steady-state wait/dispatch cycle allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

namespace lumichat::wire {

/// One ready fd, as reported by wait().
struct Event {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error or hangup — the owner should tear the fd down.
  bool error = false;
};

class EventLoop {
 public:
  /// Throws std::system_error when the epoll instance cannot be created.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the given interest set. False on failure (e.g. the
  /// fd is already registered).
  bool add(int fd, bool want_read, bool want_write);

  /// Updates an already-registered fd's interest set.
  bool modify(int fd, bool want_read, bool want_write);

  /// Unregisters `fd` (does not close it).
  bool remove(int fd);

  /// Blocks up to `timeout_ms` (0 = poll-and-return, -1 = indefinitely) and
  /// returns the number of ready fds, readable via event(i).
  [[nodiscard]] std::size_t wait(int timeout_ms);

  [[nodiscard]] const Event& event(std::size_t i) const { return events_[i]; }

  [[nodiscard]] std::size_t watched() const { return n_watched_; }

 private:
  int epfd_ = -1;
  std::vector<Event> events_;  ///< wait() results; fixed dispatch batch
  std::size_t n_watched_ = 0;
};

}  // namespace lumichat::wire
