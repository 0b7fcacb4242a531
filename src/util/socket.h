#ifndef KPJ_UTIL_SOCKET_H_
#define KPJ_UTIL_SOCKET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kpj {

/// RAII TCP socket wrapper (POSIX fd). Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();

 private:
  int fd_ = -1;
};

/// One length-prefixed frame read off a socket. `eof` is a clean
/// end-of-stream before any prefix byte (an orderly peer disconnect, not
/// an error); `payload` is the frame body otherwise.
struct Frame {
  bool eof = false;
  std::string payload;
};

/// Opens a listening TCP socket on `host:port` (port 0 = kernel-assigned
/// ephemeral port; read it back with LocalPort). SO_REUSEADDR is set so
/// quick restarts do not trip TIME_WAIT.
Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         int backlog);

/// The port a listening (or connected) socket is bound to.
Result<uint16_t> LocalPort(const Socket& socket);

/// The remote endpoint of a connected socket as "ip:port" (IPv4/IPv6).
/// Used to label access-log lines with the client that sent the request.
Result<std::string> PeerAddress(const Socket& socket);

/// Accepts one connection; call only when the listener is readable.
Result<Socket> AcceptConnection(const Socket& listener);

/// Connects to `host:port` (blocking).
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

/// Bytes of a frame's big-endian length prefix.
inline constexpr size_t kFramePrefixBytes = 4;

/// Writes one frame: 4-byte big-endian length prefix, then the payload,
/// gathered into one send. Handles partial writes and EINTR; SIGPIPE is
/// suppressed (a dead peer surfaces as an IoError, not a signal).
Status WriteFrame(const Socket& socket, std::string_view payload);

/// Sends a frame built in place: `*frame` opens with kFramePrefixBytes
/// reserved bytes and the body follows. Fills the slot with the body's
/// length and sends the buffer with one write, same error rules as
/// WriteFrame. Requires frame->size() >= kFramePrefixBytes.
Status SendFrame(const Socket& socket, std::string* frame);

/// Called with the socket's fd before every blocking read of a frame;
/// returns false to abandon the frame.
using ReadWaiter = std::function<bool(int fd)>;

/// Reads one frame (blocking). Frames longer than `max_bytes` are refused
/// without reading the body, and the payload buffer grows only as bytes
/// arrive, so a hostile prefix cannot make the server allocate memory the
/// peer never sends. EOF before the first prefix byte returns
/// Frame{eof=true}; EOF mid-frame is an IoError. With a `wait`, a read it
/// abandons fails the frame with kDeadlineExceeded.
Result<Frame> ReadFrame(const Socket& socket, size_t max_bytes,
                        const ReadWaiter& wait = nullptr);

}  // namespace kpj

#endif  // KPJ_UTIL_SOCKET_H_
