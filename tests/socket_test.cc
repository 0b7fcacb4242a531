// util/socket.h framing and util/shutdown_signal.h broadcast semantics —
// the transport kpjd and kpj_client speak.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <string>
#include <thread>
#include <vector>

#include "util/shutdown_signal.h"
#include "util/socket.h"

namespace kpj {
namespace {

struct LoopbackPair {
  Socket server;  // Accepted end.
  Socket client;  // Connected end.
};

LoopbackPair Connect() {
  Result<Socket> listener = ListenTcp("127.0.0.1", 0, 4);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  Result<uint16_t> port = LocalPort(listener.value());
  EXPECT_TRUE(port.ok());
  Result<Socket> client = ConnectTcp("127.0.0.1", port.value());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  Result<Socket> server = AcceptConnection(listener.value());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  LoopbackPair pair;
  pair.server = std::move(server).value();
  pair.client = std::move(client).value();
  return pair;
}

TEST(SocketTest, FramesRoundTripInOrder) {
  LoopbackPair pair = Connect();
  const std::vector<std::string> payloads = {
      "", "x", std::string("binary\0data", 11), std::string(100000, 'q')};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(WriteFrame(pair.client, payload).ok());
  }
  for (const std::string& payload : payloads) {
    Result<Frame> frame = ReadFrame(pair.server, 1 << 20);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_FALSE(frame.value().eof);
    EXPECT_EQ(frame.value().payload, payload);
  }
}

TEST(SocketTest, InPlaceAndPartiallyWrittenFramesRoundTrip) {
  // An 8 MiB body overflows the loopback socket buffers, so the sender
  // blocks inside each frame until the reader drains it.
  LoopbackPair pair = Connect();
  const std::string big(8 << 20, 'z');
  std::thread reader([&pair, &big] {
    for (const std::string& want : {big, std::string("in place"), big}) {
      Result<Frame> frame = ReadFrame(pair.server, 16 << 20);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame.value().payload, want);
    }
  });
  EXPECT_TRUE(WriteFrame(pair.client, big).ok());
  std::string small(kFramePrefixBytes, '\0');
  small += "in place";
  EXPECT_TRUE(SendFrame(pair.client, &small).ok());
  std::string large(kFramePrefixBytes, '\0');
  large += big;
  EXPECT_TRUE(SendFrame(pair.client, &large).ok());
  reader.join();
}

TEST(SocketTest, CleanPeerCloseReadsAsEof) {
  LoopbackPair pair = Connect();
  pair.client.Close();
  Result<Frame> frame = ReadFrame(pair.server, 1 << 20);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame.value().eof);
}

TEST(SocketTest, EofMidFrameIsAnError) {
  LoopbackPair pair = Connect();
  // A length prefix promising 100 bytes, then nothing.
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(pair.client.fd(), prefix, 4, 0), 4);
  pair.client.Close();
  Result<Frame> frame = ReadFrame(pair.server, 1 << 20);
  EXPECT_FALSE(frame.ok());
}

TEST(SocketTest, OversizedFramesAreRefusedWithoutReadingTheBody) {
  LoopbackPair pair = Connect();
  ASSERT_TRUE(WriteFrame(pair.client, std::string(4096, 'a')).ok());
  Result<Frame> frame = ReadFrame(pair.server, 1024);
  EXPECT_FALSE(frame.ok());
}

TEST(SocketTest, EphemeralPortsAreReadBack) {
  Result<Socket> listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok());
  Result<uint16_t> port = LocalPort(listener.value());
  ASSERT_TRUE(port.ok());
  EXPECT_GT(port.value(), 0);
}

TEST(SocketTest, BadListenAddressFails) {
  EXPECT_FALSE(ListenTcp("not-an-ip", 0, 4).ok());
}

TEST(ShutdownSignalTest, NotifyIsIdempotentAndBroadcasts) {
  ShutdownSignal signal;
  EXPECT_FALSE(signal.triggered());
  struct pollfd pfd = {signal.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);  // Not readable before Notify.

  signal.Notify();
  signal.Notify();  // Idempotent.
  EXPECT_TRUE(signal.triggered());

  // The fd stays readable forever: every poller wakes, repeatedly.
  for (int i = 0; i < 3; ++i) {
    pfd.revents = 0;
    ASSERT_EQ(::poll(&pfd, 1, 1000), 1);
    EXPECT_NE(pfd.revents & POLLIN, 0);
  }
}

TEST(ShutdownSignalTest, WakesABlockedPoller) {
  ShutdownSignal signal;
  std::thread waiter([&] {
    struct pollfd pfd = {signal.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 10000), 1);
  });
  signal.Notify();
  waiter.join();
}

}  // namespace
}  // namespace kpj
