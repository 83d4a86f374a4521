#include "src/net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace joinmi {
namespace net {

namespace {

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr size_t kReadChunk = 64 * 1024;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

EventLoop::EventLoop(Listener listener, FrameHandler on_frame,
                     EventLoopOptions options)
    : listener_(std::move(listener)),
      on_frame_(std::move(on_frame)),
      options_(options),
      port_(listener_.port()) {
  options_.poll_interval_ms = std::max(1, options_.poll_interval_ms);
}

Result<std::unique_ptr<EventLoop>> EventLoop::Create(
    Listener listener, FrameHandler on_frame, EventLoopOptions options) {
  if (!listener.valid()) {
    return Status::InvalidArgument("event loop needs a bound listener");
  }
  if (!on_frame) {
    return Status::InvalidArgument("event loop needs a frame handler");
  }
  std::unique_ptr<EventLoop> loop(
      new EventLoop(std::move(listener), std::move(on_frame), options));
  JOINMI_RETURN_NOT_OK(loop->SetUp());
  return loop;
}

Status EventLoop::SetUp() {
  const int flags = ::fcntl(listener_.fd(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(listener_.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(Errno("fcntl(listener, O_NONBLOCK)"));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError(Errno("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::IOError(Errno("eventfd"));

  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) < 0) {
    return Status::IOError(Errno("epoll_ctl(listener)"));
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IOError(Errno("epoll_ctl(wake)"));
  }
  return Status::OK();
}

EventLoop::~EventLoop() {
  Stop(0);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Start() {
  if (started_) return Status::InvalidArgument("event loop already started");
  started_ = true;
  accepting_commands_.store(true);
  thread_ = std::thread(&EventLoop::Run, this);
  return Status::OK();
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the result is irrelevant.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Quiesce() {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    quiesce_requested_ = true;
  }
  Wake();
}

void EventLoop::Stop(int flush_timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    stop_requested_ = true;
    flush_timeout_ms_ = std::max(flush_timeout_ms_, flush_timeout_ms);
  }
  Wake();
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (thread_.joinable()) thread_.join();
  accepting_commands_.store(false);
}

bool EventLoop::Send(ConnId conn, std::string encoded) {
  if (!accepting_commands_.load()) return false;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (stop_requested_) return false;
    pending_sends_.emplace_back(conn, std::move(encoded));
  }
  Wake();
  return true;
}

Status EventLoop::UpdateInterest(Conn* conn, bool want_read) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (want_read ? EPOLLIN : 0u) | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket.fd(), &ev) < 0) {
    return Status::IOError(Errno("epoll_ctl(mod)"));
  }
  return Status::OK();
}

void EventLoop::DropConn(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // close() removes the fd from the epoll set automatically.
  it->second->socket.Close();
  conns_.erase(it);
  open_conns_.fetch_sub(1);
}

void EventLoop::AcceptReady() {
  while (true) {
    const int fd =
        ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient error; epoll re-reports
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->socket = Socket(fd);
    conn->last_active = std::chrono::steady_clock::now();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn closes on scope exit
    }
    conns_.emplace(conn->id, std::move(conn));
    open_conns_.fetch_add(1);
  }
}

void EventLoop::ReadReady(Conn* conn) {
  const ConnId id = conn->id;
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->socket.fd(), buf, sizeof(buf), 0);
    if (n == 0) {
      DropConn(id);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      DropConn(id);
      return;
    }
    conn->last_active = std::chrono::steady_clock::now();
    conn->assembler.Feed(buf, static_cast<size_t>(n));
    while (true) {
      Frame frame;
      auto produced = conn->assembler.Next(&frame);
      if (!produced.ok()) {
        // Corrupt stream: no way to resync inside TCP, drop the peer.
        DropConn(id);
        return;
      }
      if (!*produced) break;
      on_frame_(id, std::move(frame));
      // The handler may have torn the loop down-stream state; re-check.
      if (conns_.find(id) == conns_.end()) return;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
  }
}

bool EventLoop::FlushOutbox(Conn* conn) {
  const ConnId id = conn->id;
  while (conn->outbox_off < conn->outbox.size()) {
    const ssize_t n =
        ::send(conn->socket.fd(), conn->outbox.data() + conn->outbox_off,
               conn->outbox.size() - conn->outbox_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          if (!UpdateInterest(conn, reads_enabled_).ok()) {
            DropConn(id);
            return false;
          }
        }
        return true;
      }
      DropConn(id);
      return false;
    }
    conn->outbox_off += static_cast<size_t>(n);
    conn->last_active = std::chrono::steady_clock::now();
  }
  conn->outbox.clear();
  conn->outbox_off = 0;
  if (conn->want_write) {
    conn->want_write = false;
    if (!UpdateInterest(conn, reads_enabled_).ok()) {
      DropConn(id);
      return false;
    }
  }
  return true;
}

void EventLoop::ApplyPendingOps() {
  std::vector<std::pair<ConnId, std::string>> sends;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    sends.swap(pending_sends_);
  }
  for (auto& send : sends) {
    auto it = conns_.find(send.first);
    if (it == conns_.end()) continue;  // conn died first: drop silently
    Conn* conn = it->second.get();
    conn->outbox.append(send.second);
    FlushOutbox(conn);
  }
}

void EventLoop::ReapIdle(std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout_ms <= 0) return;
  const auto bound = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<ConnId> doomed;
  for (const auto& entry : conns_) {
    if (now - entry.second->last_active > bound) {
      doomed.push_back(entry.first);
    }
  }
  for (ConnId id : doomed) DropConn(id);
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  bool quiescing = false;
  bool stopping = false;
  std::chrono::steady_clock::time_point stop_deadline;
  last_idle_scan_ = std::chrono::steady_clock::now();

  auto disable_reads = [this] {
    if (!reads_enabled_) return;
    reads_enabled_ = false;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    for (auto& entry : conns_) {
      UpdateInterest(entry.second.get(), /*want_read=*/false);
    }
  };

  while (true) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, options_.poll_interval_ms);
    if (n < 0 && errno != EINTR) break;
    const auto now = std::chrono::steady_clock::now();
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        if (reads_enabled_) AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // dropped earlier in this batch
      Conn* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        DropConn(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushOutbox(conn)) continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && reads_enabled_) {
        ReadReady(conn);
      }
    }

    bool want_quiesce = false;
    bool want_stop = false;
    int flush_ms = 0;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      want_quiesce = quiesce_requested_;
      want_stop = stop_requested_;
      flush_ms = flush_timeout_ms_;
    }
    ApplyPendingOps();
    if ((want_quiesce || want_stop) && !quiescing) {
      quiescing = true;
      disable_reads();
    }
    if (want_stop && !stopping) {
      stopping = true;
      stop_deadline = now + std::chrono::milliseconds(flush_ms);
    }
    if (stopping) {
      bool pending_writes = false;
      for (const auto& entry : conns_) {
        if (entry.second->outbox_off < entry.second->outbox.size()) {
          pending_writes = true;
          break;
        }
      }
      if (!pending_writes || now >= stop_deadline) break;
      continue;
    }
    if (!quiescing &&
        now - last_idle_scan_ > std::chrono::milliseconds(1000)) {
      last_idle_scan_ = now;
      ReapIdle(now);
    }
  }

  // Final teardown: close every connection.
  conns_.clear();
  open_conns_.store(0);
  listener_.Close();
}

}  // namespace net
}  // namespace joinmi
