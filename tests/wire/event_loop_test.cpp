// EventLoop readiness semantics over socketpairs.
#include <cerrno>
#include <cstdint>
#include <system_error>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "wire/event_loop.hpp"

namespace lumichat::wire {
namespace {

struct Pair {
  int a = -1;
  int b = -1;
  Pair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a = sv[0];
    b = sv[1];
  }
  ~Pair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(EventLoop, StartsWithNothingWatched) {
  const EventLoop loop;
  EXPECT_EQ(loop.watched(), 0u);
}

TEST(EventLoop, ThrowsWhenEpollCannotBeCreated) {
  // With a descriptor limit of 0 no new fd can be allocated, so
  // epoll_create1 fails with EMFILE.
  //
  // Under -fsanitize=vptr, the first check of an object's dynamic type
  // probes its vtable through a pipe(2); with no descriptors left the probe
  // fails, and UBSan reports the valid std::system_error as having an
  // invalid vptr. Building the same exception once first puts its type in
  // the sanitizer's cache, so the check under the limit needs no probe.
  (void)std::system_error(EMFILE, std::generic_category(),
                          "EventLoop: epoll_create1");
  ::rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  ::rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
  EXPECT_THROW({ const EventLoop loop; }, std::system_error);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
}

TEST(EventLoop, WaitWithNothingRegisteredReturnsZero) {
  EventLoop loop;
  EXPECT_EQ(loop.wait(0), 0u);
}

TEST(EventLoop, ReportsReadableAfterPeerWrite) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, /*want_read=*/true, /*want_write=*/false));
  EXPECT_EQ(loop.watched(), 1u);

  EXPECT_EQ(loop.wait(0), 0u);  // nothing written yet

  const std::uint8_t byte = 42;
  ASSERT_EQ(::send(p.b, &byte, 1, 0), 1);
  const std::size_t n = loop.wait(100);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(loop.event(0).fd, p.a);
  EXPECT_TRUE(loop.event(0).readable);
  EXPECT_FALSE(loop.event(0).writable);
}

TEST(EventLoop, LevelTriggeredUntilDrained) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, true, false));
  const std::uint8_t byte = 1;
  ASSERT_EQ(::send(p.b, &byte, 1, 0), 1);
  // The same readiness surfaces on every wait until the byte is consumed.
  ASSERT_EQ(loop.wait(0), 1u);
  ASSERT_EQ(loop.wait(0), 1u);
  std::uint8_t sink;
  ASSERT_EQ(::recv(p.a, &sink, 1, 0), 1);
  EXPECT_EQ(loop.wait(0), 0u);
}

TEST(EventLoop, WritableInterestReportsIdleSocket) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, false, true));
  const std::size_t n = loop.wait(0);
  ASSERT_EQ(n, 1u);  // an idle socket's send buffer has room
  EXPECT_TRUE(loop.event(0).writable);
}

TEST(EventLoop, ModifySwitchesInterestSet) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, false, true));
  ASSERT_EQ(loop.wait(0), 1u);
  ASSERT_TRUE(loop.modify(p.a, true, false));
  EXPECT_EQ(loop.wait(0), 0u);  // no longer write-interested, nothing to read
  const std::uint8_t byte = 7;
  ASSERT_EQ(::send(p.b, &byte, 1, 0), 1);
  EXPECT_EQ(loop.wait(100), 1u);
}

TEST(EventLoop, RemoveStopsReporting) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, true, false));
  ASSERT_TRUE(loop.remove(p.a));
  EXPECT_EQ(loop.watched(), 0u);
  const std::uint8_t byte = 9;
  ASSERT_EQ(::send(p.b, &byte, 1, 0), 1);
  EXPECT_EQ(loop.wait(0), 0u);
  EXPECT_FALSE(loop.remove(p.a));  // already gone
}

TEST(EventLoop, DuplicateAddRejected) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, true, false));
  EXPECT_FALSE(loop.add(p.a, true, false));
  EXPECT_EQ(loop.watched(), 1u);
}

TEST(EventLoop, HangupSurfacesAsErrorOrReadable) {
  EventLoop loop;
  Pair p;
  ASSERT_TRUE(loop.add(p.a, true, false));
  ::close(p.b);
  p.b = -1;
  const std::size_t n = loop.wait(100);
  ASSERT_EQ(n, 1u);
  // A closed peer shows up as EPOLLHUP (error) and/or a readable
  // EOF; either way the owner learns the connection is dead.
  EXPECT_TRUE(loop.event(0).error || loop.event(0).readable);
}

TEST(EventLoop, TracksManyFds) {
  EventLoop loop;
  constexpr std::size_t kPairs = 20;
  Pair pairs[kPairs];
  for (auto& p : pairs) ASSERT_TRUE(loop.add(p.a, true, false));
  EXPECT_EQ(loop.watched(), kPairs);
  // Make every other pair readable; exactly those surface.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < kPairs; i += 2) {
    const std::uint8_t byte = 1;
    ASSERT_EQ(::send(pairs[i].b, &byte, 1, 0), 1);
    ++expected;
  }
  EXPECT_EQ(loop.wait(100), expected);
}

}  // namespace
}  // namespace lumichat::wire
