// TcpNetwork unit tests: framing, loopback, hostile frames, and the
// link-reset signals the runtime turns into resyncs. Everything runs
// against real sockets on 127.0.0.1 with ephemeral ports.

#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace wdl {
namespace {

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

Envelope Hello(const std::string& from, const std::string& to,
               uint64_t seq = 1) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.seq = seq;
  e.message = Message::Hello(from);
  return e;
}

// Raw client socket for speaking (mis)framed bytes at a listener.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Runs WaitForInbox(timeout) on its own thread, recording what it
/// returned and when. Construct it, give it time to block, act, then
/// Join() before reading the results.
class Waiter {
 public:
  Waiter(TcpNetwork* net, milliseconds timeout)
      : thread_([this, net, timeout] {
          woke_ = net->WaitForInbox(timeout);
          returned_at_ = Clock::now();
        }) {}
  ~Waiter() { Join(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  bool woke() const { return woke_; }
  Clock::time_point returned_at() const { return returned_at_; }

 private:
  bool woke_ = false;
  Clock::time_point returned_at_;
  std::thread thread_;  // last: it uses the fields above
};

// Long enough for a fresh thread to reach the wait on a loaded machine.
constexpr milliseconds kLetWaiterBlock{50};

std::string Framed(const std::string& payload) {
  std::string frame;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(len >> (8 * i)));
  return frame + payload;
}

/// True when the remote closed the connection (recv sees EOF).
bool SeesEof(int fd, int timeout_ms = 5000) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char c;
  return ::recv(fd, &c, 1, 0) == 0;
}

TEST(TcpNetworkTest, StartPicksEphemeralPortAndSubmitBeforeStartFails) {
  TcpNetwork net;
  Status st = net.Submit(Hello("a", "b"), 0.0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(net.Start().ok());
  EXPECT_NE(net.port(), 0);
}

TEST(TcpNetworkTest, LocalPeerLoopsBackThroughTheCodec) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("alice");

  ASSERT_TRUE(net.Submit(Hello("alice", "alice", 3), 0.0).ok());
  std::vector<Envelope> got = net.DeliverDue(0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].seq, 3u);
  NetworkStats stats = net.StatsSnapshot();
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);  // loopback still counts wire bytes
}

TEST(TcpNetworkTest, SubmitToUnknownPeerIsNotFound) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  Status st = net.Submit(Hello("alice", "nobody"), 0.0);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(TcpNetworkTest, DeliversAcrossRealSockets) {
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());

  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 11), 0.0).ok());
  std::vector<Envelope> got;
  ASSERT_TRUE(WaitUntil([&] {
    for (Envelope& e : b.DeliverDue(0.0)) got.push_back(std::move(e));
    return !got.empty();
  }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].to, "bob");
  EXPECT_EQ(got[0].seq, 11u);
  // A clean first connect is not a reset.
  EXPECT_TRUE(a.TakePeerResets().empty());
  EXPECT_EQ(b.TcpStatsSnapshot().frames_received, 1u);
  EXPECT_TRUE(WaitUntil([&] { return !a.HasInFlight(); }));
}

// The receive counters move only after the envelope is in the inbox:
// a caller that waits for frames_received == K must then collect all K
// envelopes in one DeliverDue, never find the inbox one short.
TEST(TcpNetworkTest, FrameCountImpliesTheInboxHoldsTheFrames) {
  constexpr uint64_t kFrames = 16;
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());

  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.Submit(Hello("alice", "bob", i + 1), 0.0).ok());
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return b.TcpStatsSnapshot().frames_received == kFrames; }));
  EXPECT_EQ(b.DeliverDue(0.0).size(), kFrames);
}

TEST(TcpNetworkTest, GarbageFrameDropsTheConnection) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("bob");

  int fd = RawConnect(net.port());
  std::string frame = Framed("this is not an envelope");
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(WaitUntil(
      [&] { return net.TcpStatsSnapshot().decode_failures == 1; }));
  // The reader refuses to resynchronize a corrupt stream: it hangs up.
  EXPECT_TRUE(SeesEof(fd));
  EXPECT_EQ(net.TcpStatsSnapshot().frames_received, 0u);
  EXPECT_TRUE(net.DeliverDue(0.0).empty());
  ::close(fd);
}

TEST(TcpNetworkTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  TcpNetworkOptions options;
  options.max_frame_bytes = 1 << 16;
  TcpNetwork net(options);
  ASSERT_TRUE(net.Start().ok());

  int fd = RawConnect(net.port());
  const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};  // 4 GiB claim
  ASSERT_EQ(::send(fd, huge, 4, 0), 4);
  EXPECT_TRUE(WaitUntil(
      [&] { return net.TcpStatsSnapshot().oversized_frames == 1; }));
  EXPECT_TRUE(SeesEof(fd));
  ::close(fd);

  // Zero-length frames are equally meaningless and equally fatal.
  fd = RawConnect(net.port());
  const char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fd, zero, 4, 0), 4);
  EXPECT_TRUE(WaitUntil(
      [&] { return net.TcpStatsSnapshot().oversized_frames == 2; }));
  EXPECT_TRUE(SeesEof(fd));
  ::close(fd);
}

TEST(TcpNetworkTest, TruncatedFrameAtEofDeliversNothing) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());

  int fd = RawConnect(net.port());
  // Claim 100 bytes, provide 10, hang up mid-frame.
  std::string partial = Framed(std::string(100, 'x')).substr(0, 4 + 10);
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);
  ASSERT_TRUE(WaitUntil(
      [&] { return net.TcpStatsSnapshot().connections_accepted == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(net.TcpStatsSnapshot().frames_received, 0u);
  EXPECT_TRUE(net.DeliverDue(0.0).empty());
}

TEST(TcpNetworkTest, InboundCloseSignalsResetOfTheSender) {
  TcpNetwork b;
  ASSERT_TRUE(b.Start().ok());
  b.AddLocalPeer("bob");
  {
    TcpNetwork a;
    ASSERT_TRUE(a.Start().ok());
    a.AddLocalPeer("alice");
    a.SetPeerAddress("bob", "127.0.0.1", b.port());
    ASSERT_TRUE(a.Submit(Hello("alice", "bob"), 0.0).ok());
    ASSERT_TRUE(WaitUntil(
        [&] { return b.TcpStatsSnapshot().frames_received == 1; }));
  }  // alice's process "dies"
  std::vector<std::string> resets;
  ASSERT_TRUE(WaitUntil([&] {
    for (std::string& r : b.TakePeerResets()) resets.push_back(std::move(r));
    return !resets.empty();
  }));
  EXPECT_EQ(resets, std::vector<std::string>{"alice"});
}

TEST(TcpNetworkTest, ReconnectsThroughAddressFileAndSignalsReset) {
  std::string addr_file =
      ::testing::TempDir() + "/tcp_network_test_bob.addr";
  auto write_addr = [&](uint16_t port) {
    std::string tmp = addr_file + ".tmp";
    FILE* f = ::fopen(tmp.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "127.0.0.1:%u\n", port);
    ::fclose(f);
    ASSERT_EQ(::rename(tmp.c_str(), addr_file.c_str()), 0);
  };

  TcpNetworkOptions fast_retry;
  fast_retry.connect_retry_initial_ms = 5;
  fast_retry.connect_retry_max_ms = 40;
  TcpNetwork a(fast_retry);
  ASSERT_TRUE(a.Start().ok());
  a.AddLocalPeer("alice");
  a.SetPeerAddressFile("bob", addr_file);

  auto b1 = std::make_unique<TcpNetwork>();
  ASSERT_TRUE(b1->Start().ok());
  b1->AddLocalPeer("bob");
  write_addr(b1->port());

  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 1), 0.0).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return b1->TcpStatsSnapshot().frames_received == 1; }));
  EXPECT_TRUE(a.TakePeerResets().empty());

  // Kill bob's first incarnation; bring up a second one on a fresh
  // ephemeral port and republish the address file — exactly what a
  // restarted wdl_peerd does.
  b1.reset();
  TcpNetwork b2;
  ASSERT_TRUE(b2.Start().ok());
  b2.AddLocalPeer("bob");
  write_addr(b2.port());

  // Keep offering traffic: the first send after the death may be
  // swallowed by a kernel buffer, the next one errors, the link
  // reconnects — to the *new* port — and redelivers from the queue.
  uint64_t seq = 2;
  std::vector<std::string> resets;
  ASSERT_TRUE(WaitUntil([&] {
    (void)a.Submit(Hello("alice", "bob", seq++), 0.0);
    for (std::string& r : a.TakePeerResets()) resets.push_back(std::move(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return !resets.empty() && b2.TcpStatsSnapshot().frames_received > 0;
  }, 10000));
  EXPECT_EQ(resets[0], "bob");
  EXPECT_GE(a.TcpStatsSnapshot().reconnects, 1u);
  ::unlink(addr_file.c_str());
}

TEST(TcpNetworkTest, WaitForInboxWakesWhenAFrameArrives) {
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());

  Waiter waiter(&b, milliseconds(5000));
  std::this_thread::sleep_for(kLetWaiterBlock);
  const Clock::time_point sent = Clock::now();
  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 7), 0.0).ok());
  waiter.Join();
  EXPECT_TRUE(waiter.woke());
  EXPECT_LT(waiter.returned_at() - sent, milliseconds(1000));
  std::vector<Envelope> got = b.DeliverDue(0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 7u);
}

TEST(TcpNetworkTest, WaitForInboxReturnsAtOnceWhenInboxIsNonEmpty) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("alice");
  ASSERT_TRUE(net.Submit(Hello("alice", "alice"), 0.0).ok());

  const Clock::time_point start = Clock::now();
  EXPECT_TRUE(net.WaitForInbox(milliseconds(5000)));
  EXPECT_LT(Clock::now() - start, milliseconds(1000));
  // Waiting consumes nothing: the envelope is still there to deliver.
  EXPECT_EQ(net.DeliverDue(0.0).size(), 1u);
}

TEST(TcpNetworkTest, WaitForInboxTimesOutWhenNothingArrives) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("alice");

  const Clock::time_point start = Clock::now();
  EXPECT_FALSE(net.WaitForInbox(milliseconds(50)));
  const Clock::duration waited = Clock::now() - start;
  EXPECT_GE(waited, milliseconds(45));
  EXPECT_LT(waited, milliseconds(1000));
}

TEST(TcpNetworkTest, ShutdownWakesAWaiter) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());

  Waiter waiter(&net, milliseconds(5000));
  std::this_thread::sleep_for(kLetWaiterBlock);
  const Clock::time_point stopped = Clock::now();
  net.Shutdown();
  waiter.Join();
  EXPECT_TRUE(waiter.woke());
  EXPECT_LT(waiter.returned_at() - stopped, milliseconds(1000));
}

TEST(TcpNetworkTest, DroppedInboundConnectionWakesAWaiter) {
  TcpNetwork b;
  ASSERT_TRUE(b.Start().ok());
  b.AddLocalPeer("bob");
  auto a = std::make_unique<TcpNetwork>();
  ASSERT_TRUE(a->Start().ok());
  a->AddLocalPeer("alice");
  a->SetPeerAddress("bob", "127.0.0.1", b.port());
  ASSERT_TRUE(a->Submit(Hello("alice", "bob"), 0.0).ok());
  // Drain the frame so only the reset can end the wait below.
  ASSERT_TRUE(WaitUntil([&] { return !b.DeliverDue(0.0).empty(); }));

  Waiter waiter(&b, milliseconds(5000));
  std::this_thread::sleep_for(kLetWaiterBlock);
  const Clock::time_point dropped = Clock::now();
  a.reset();  // alice's process "dies"; bob's reader sees EOF
  waiter.Join();
  EXPECT_TRUE(waiter.woke());
  EXPECT_LT(waiter.returned_at() - dropped, milliseconds(1000));
  EXPECT_EQ(b.TakePeerResets(), std::vector<std::string>{"alice"});
}

}  // namespace
}  // namespace wdl
