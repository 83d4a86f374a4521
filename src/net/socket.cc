#include "src/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

namespace joinmi {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status SetBlocking(int fd, bool blocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::IOError(Errno("fcntl(F_GETFL)"));
  const int wanted = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  if (wanted != flags && fcntl(fd, F_SETFL, wanted) < 0) {
    return Status::IOError(Errno("fcntl(F_SETFL)"));
  }
  return Status::OK();
}

Status SetOneTimeout(int fd, int option, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) < 0) {
    return Status::IOError(Errno("setsockopt(timeout)"));
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------------ Socket

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SetNonBlocking(bool nonblocking) {
  if (!valid()) return Status::IOError("socket is not open");
  return SetBlocking(fd_, !nonblocking);
}

Status Socket::SetTimeouts(int recv_timeout_ms, int send_timeout_ms) {
  if (!valid()) return Status::IOError("socket is not open");
  JOINMI_RETURN_NOT_OK(SetOneTimeout(fd_, SO_RCVTIMEO, recv_timeout_ms));
  return SetOneTimeout(fd_, SO_SNDTIMEO, send_timeout_ms);
}

Status Socket::WriteAll(const void* data, size_t len, size_t* bytes_written) {
  if (bytes_written != nullptr) *bytes_written = 0;
  if (!valid()) return Status::IOError("socket is not open");
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("socket write timed out");
      }
      return Status::IOError(Errno("socket write failed"));
    }
    sent += static_cast<size_t>(n);
    if (bytes_written != nullptr) *bytes_written = sent;
  }
  return Status::OK();
}

Status Socket::ReadExact(void* data, size_t len) {
  if (!valid()) return Status::IOError("socket is not open");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n == 0) {
      return Status::IOError("connection closed by peer");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("socket read timed out");
      }
      return Status::IOError(Errno("socket read failed"));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

bool Socket::PeerClosed() const {
  if (!valid()) return true;
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLRDHUP;
  pfd.revents = 0;
  if (::poll(&pfd, 1, 0) < 0) return errno != EINTR;
  return (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port,
                               int connect_timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::IOError("cannot resolve '" + host +
                           "': " + gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for '" + host + "'");
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(Errno("socket()"));
      continue;
    }
    Socket socket(fd);
    // Non-blocking connect + poll bounds the handshake; a down server
    // fails in connect_timeout_ms instead of the kernel's minutes-long
    // default, which is what lets the router degrade quickly.
    Status st = SetBlocking(fd, false);
    if (st.ok()) {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        st = Status::OK();
      } else if (errno != EINPROGRESS) {
        st = Status::IOError(Errno("connect to " + host + ":" + service));
      } else {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int ready = ::poll(&pfd, 1, connect_timeout_ms);
        if (ready == 0) {
          st = Status::IOError("connect to " + host + ":" + service +
                               " timed out");
        } else if (ready < 0) {
          st = Status::IOError(Errno("poll during connect"));
        } else {
          int err = 0;
          socklen_t err_len = sizeof(err);
          if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
            st = Status::IOError(Errno("getsockopt(SO_ERROR)"));
          } else if (err != 0) {
            errno = err;
            st = Status::IOError(
                Errno("connect to " + host + ":" + service));
          }
        }
      }
    }
    if (st.ok()) st = SetBlocking(fd, true);
    if (st.ok()) {
      ::freeaddrinfo(addrs);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return socket;
    }
    last = std::move(st);
  }
  ::freeaddrinfo(addrs);
  return last;
}

// ---------------------------------------------------------------- Listener

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::Bind(const std::string& host, uint16_t port,
                                int backlog) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::IOError("cannot resolve '" + host +
                           "': " + gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for '" + host + "'");
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(Errno("socket()"));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 ||
        ::listen(fd, backlog) < 0) {
      last = Status::IOError(Errno("bind/listen on " + host + ":" + service));
      ::close(fd);
      continue;
    }
    // Recover the actual port for ephemeral binds (port 0).
    struct sockaddr_storage bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &bound_len) < 0) {
      last = Status::IOError(Errno("getsockname()"));
      ::close(fd);
      continue;
    }
    Listener listener;
    listener.fd_ = fd;
    if (bound.ss_family == AF_INET) {
      listener.port_ = ntohs(
          reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      listener.port_ = ntohs(
          reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
    } else {
      listener.port_ = port;
    }
    ::freeaddrinfo(addrs);
    return listener;
  }
  ::freeaddrinfo(addrs);
  return last;
}

Result<Socket> Listener::AcceptWithTimeout(int timeout_ms) {
  if (!valid()) return Status::IOError("listener is not open");
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return Status::OutOfRange("accept timed out");
  if (ready < 0) {
    if (errno == EINTR) return Status::OutOfRange("accept interrupted");
    return Status::IOError(Errno("poll during accept"));
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Status::IOError(Errno("accept()"));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

}  // namespace net
}  // namespace joinmi
