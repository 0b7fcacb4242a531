#include "util/socket.h"

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace kpj {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> MakeAddress(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  return addr;
}

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// send() the whole buffer, retrying partial writes and EINTR.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::send(fd, data + written, size - written, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// The 4-byte big-endian length prefix of a `size`-byte body.
void EncodePrefix(size_t size, char* prefix) {
  prefix[0] = static_cast<char>(size >> 24);
  prefix[1] = static_cast<char>(size >> 16);
  prefix[2] = static_cast<char>(size >> 8);
  prefix[3] = static_cast<char>(size);
}

/// read() exactly `size` bytes. `*got` reports progress so callers can
/// distinguish clean EOF (0 bytes read) from a truncated stream.
Status ReadAll(int fd, char* data, size_t size, size_t* got,
               const ReadWaiter& wait) {
  *got = 0;
  while (*got < size) {
    if (wait && !wait(fd)) {
      return Status::DeadlineExceeded("peer stalled mid-frame");
    }
    ssize_t n = ::read(fd, data + *got, size - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      return Status::IoError("connection closed mid-frame");
    }
    *got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Disable Nagle's algorithm. The protocol is strict request/response
/// with small frames; with Nagle on, the 4-byte length prefix and the
/// payload written back-to-back interact with the peer's delayed ACK and
/// stall every round trip by up to 40 ms on loopback (kpj_loadgen
/// measured ~88 ms/query where the solver itself takes ~2 ms). Best
/// effort: a failure leaves the socket slow, not broken.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         int backlog) {
  Result<sockaddr_in> addr = MakeAddress(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), backlog) != 0) return Errno("listen");
  return sock;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<std::string> PeerAddress(const Socket& socket) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getpeername");
  }
  char host[INET6_ADDRSTRLEN] = {0};
  uint16_t port = 0;
  if (addr.ss_family == AF_INET) {
    const auto* v4 = reinterpret_cast<const sockaddr_in*>(&addr);
    ::inet_ntop(AF_INET, &v4->sin_addr, host, sizeof(host));
    port = ntohs(v4->sin_port);
  } else if (addr.ss_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&addr);
    ::inet_ntop(AF_INET6, &v6->sin6_addr, host, sizeof(host));
    port = ntohs(v6->sin6_port);
  } else {
    return Status::InvalidArgument("unsupported peer address family");
  }
  return std::string(host) + ":" + std::to_string(port);
}

Result<Socket> AcceptConnection(const Socket& listener) {
  for (;;) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  Result<sockaddr_in> addr = MakeAddress(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  for (;;) {
    if (::connect(sock.fd(),
                  reinterpret_cast<const sockaddr*>(&addr.value()),
                  sizeof(sockaddr_in)) == 0) {
      SetNoDelay(sock.fd());
      return sock;
    }
    if (errno == EINTR) continue;
    return Errno("connect " + host + ":" + std::to_string(port));
  }
}

Status WriteFrame(const Socket& socket, std::string_view payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame too large");
  }
  char prefix[kFramePrefixBytes];
  EncodePrefix(payload.size(), prefix);
  // One gathering send puts the prefix and the body in one segment without
  // copying the body; a partial send finishes with plain writes.
  iovec parts[2] = {{prefix, kFramePrefixBytes},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  ssize_t n;
  do {
    n = ::sendmsg(socket.fd(), &message, kSendFlags);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Errno("write");
  size_t sent = static_cast<size_t>(n);
  if (sent < kFramePrefixBytes) {
    KPJ_RETURN_IF_ERROR(WriteAll(socket.fd(), prefix + sent,
                                 kFramePrefixBytes - sent));
    sent = kFramePrefixBytes;
  }
  sent -= kFramePrefixBytes;
  return WriteAll(socket.fd(), payload.data() + sent, payload.size() - sent);
}

Status SendFrame(const Socket& socket, std::string* frame) {
  const size_t body = frame->size() - kFramePrefixBytes;
  if (body > UINT32_MAX) return Status::InvalidArgument("frame too large");
  EncodePrefix(body, frame->data());
  return WriteAll(socket.fd(), frame->data(), frame->size());
}

Result<Frame> ReadFrame(const Socket& socket, size_t max_bytes,
                        const ReadWaiter& wait) {
  unsigned char prefix[4];
  size_t got = 0;
  Status read =
      ReadAll(socket.fd(), reinterpret_cast<char*>(prefix), 4, &got, wait);
  if (!read.ok()) {
    // EOF before any prefix byte is an orderly disconnect, not an error.
    if (got == 0 && read.message().rfind("connection closed", 0) == 0) {
      Frame frame;
      frame.eof = true;
      return frame;
    }
    return read;
  }
  uint32_t size = (static_cast<uint32_t>(prefix[0]) << 24) |
                  (static_cast<uint32_t>(prefix[1]) << 16) |
                  (static_cast<uint32_t>(prefix[2]) << 8) |
                  static_cast<uint32_t>(prefix[3]);
  if (size > max_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(size) +
                                   " bytes exceeds the " +
                                   std::to_string(max_bytes) + "-byte limit");
  }
  // The buffer grows as bytes arrive, one bounded chunk at a time: a peer
  // that announces a large frame and stalls holds one chunk, not `size`.
  constexpr size_t kReadChunk = 64 * 1024;
  Frame frame;
  while (frame.payload.size() < size) {
    const size_t have = frame.payload.size();
    const size_t want = std::min<size_t>(size - have, kReadChunk);
    frame.payload.resize(have + want);
    KPJ_RETURN_IF_ERROR(
        ReadAll(socket.fd(), frame.payload.data() + have, want, &got, wait));
  }
  return frame;
}

}  // namespace kpj
