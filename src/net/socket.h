// Minimal blocking TCP primitives for the shard serving tier: an RAII
// socket with whole-buffer read/write and per-direction timeouts, a
// listener with poll-based interruptible accept, and a timeout-bounded
// connect. POSIX-only, deliberately synchronous — the serving workloads
// above this are one-request-at-a-time per connection, fanned out across a
// ThreadPool, so blocking I/O with timeouts is simpler and no slower than
// an event loop at this scale.
//
// Error model matches the rest of the library: no exceptions, every
// fallible call returns Status/Result. A peer closing mid-read surfaces as
// IOError mentioning "closed", a timeout as IOError mentioning "timed
// out" — callers that care (retry logic) match on the message, everything
// else just propagates.

#ifndef JOINMI_NET_SOCKET_H_
#define JOINMI_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace joinmi {
namespace net {

/// \brief RAII wrapper over a connected stream socket file descriptor.
/// Move-only; the destructor closes the descriptor.
class Socket {
 public:
  Socket() = default;
  /// \brief Adopts an already-open descriptor (e.g. from Listener::Accept
  /// or socketpair in tests).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// \brief Sets per-call receive/send timeouts (0 disables the bound).
  Status SetTimeouts(int recv_timeout_ms, int send_timeout_ms);

  /// \brief Toggles O_NONBLOCK — the event-loop registration path. The
  /// blocking read/write helpers above assume blocking mode; a nonblocking
  /// socket belongs to a reactor that does its own recv/send.
  Status SetNonBlocking(bool nonblocking);

  /// \brief Writes the whole buffer, retrying short writes. Never raises
  /// SIGPIPE. If `bytes_written` is non-null it receives the count actually
  /// put on the wire even on failure — retry policies need to distinguish
  /// "nothing sent" from a partial write.
  Status WriteAll(const void* data, size_t len,
                  size_t* bytes_written = nullptr);

  /// \brief Reads exactly `len` bytes, retrying short reads. A peer close
  /// before `len` bytes is an IOError mentioning "closed".
  Status ReadExact(void* data, size_t len);

  /// \brief Zero-timeout probe for whether the peer has closed or reset
  /// the connection. Reads nothing, so bytes a concurrent reader is about
  /// to consume (an in-flight response) are left alone. TCP accepts writes
  /// on a half-closed connection, so a send-side check cannot detect this
  /// — the probe is what lets a client re-dial a restarted server instead
  /// of sending its next request into a dead connection.
  bool PeerClosed() const;

  /// \brief Opens a TCP connection to host:port, bounding the connect
  /// itself by `connect_timeout_ms` (the returned socket has no I/O
  /// timeouts set; call SetTimeouts). `host` is a numeric address or name.
  static Result<Socket> Connect(const std::string& host, uint16_t port,
                                int connect_timeout_ms);

 private:
  int fd_ = -1;
};

/// \brief A bound, listening TCP socket.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  Listener& operator=(Listener&& other) noexcept;

  /// \brief Binds host:port and starts listening. Port 0 binds an
  /// ephemeral port; port() reports the actual one.
  static Result<Listener> Bind(const std::string& host, uint16_t port,
                               int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }
  void Close();

  /// \brief Waits up to `timeout_ms` for a connection. Returns OutOfRange
  /// on timeout (the polling idiom for an interruptible accept loop: poll,
  /// check a stop flag, poll again) and IOError on real failures.
  Result<Socket> AcceptWithTimeout(int timeout_ms);

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace joinmi

#endif  // JOINMI_NET_SOCKET_H_
