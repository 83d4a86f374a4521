// EventLoop: a single-threaded epoll reactor that owns every serving
// connection's reads and writes, replacing the thread-per-connection
// accept loop. The loop thread accepts, assembles JMRP frames from
// nonblocking reads, and hands each complete
// frame to an injected callback; actual request execution belongs on a
// worker pool — the callback must not block. Responses come back through
// Send(), which is safe from any thread: bytes are queued to the
// connection's outbox, the loop is woken through an eventfd, and the loop
// thread drains the queue with nonblocking writes (arming EPOLLOUT only
// while a partial write is pending). Because the loop never waits for one
// connection's response before reading the next frame, responses complete
// out of order and callers pair them by request_id — the server side of
// JMRP pipelining.
//
// Connections are named by a monotonically increasing ConnId that is
// never reused, so a worker finishing a request for a connection that
// died meanwhile sends into the void (dropped silently) instead of into a
// recycled descriptor — the classic stale-fd bug an fd-keyed map invites.
//
// Shutdown is two-phase to keep drains graceful: Quiesce() stops
// accepting and reading (no new work is created) while writes keep
// flushing, then Stop(flush_timeout_ms) bounds the final flush and joins
// the loop thread. A frame-stream error (bad magic, oversized length,
// unsupported version, including a retired v1 header) closes that
// connection only.

#ifndef JOINMI_NET_EVENT_LOOP_H_
#define JOINMI_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {
namespace net {

struct EventLoopOptions {
  /// Connections silent (no bytes either direction) for this long are
  /// dropped; 0 disables the reaper.
  int idle_timeout_ms = 30000;
  /// epoll_wait tick — bounds how stale the idle scan and shutdown-flag
  /// checks can be.
  int poll_interval_ms = 100;
};

/// \brief Single-threaded epoll reactor serving framed JMRP connections.
class EventLoop {
 public:
  using ConnId = uint64_t;
  /// Called on the loop thread for every complete frame. Must not block;
  /// dispatch to a worker pool and reply later via Send().
  using FrameHandler = std::function<void(ConnId, Frame)>;

  /// \brief Takes ownership of a bound listener and the frame callback.
  /// The loop is created stopped; call Start().
  static Result<std::unique_ptr<EventLoop>> Create(
      Listener listener, FrameHandler on_frame,
      EventLoopOptions options = {});

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Spawns the loop thread. Call once.
  Status Start();

  /// \brief Stops accepting and reading; pending writes keep flushing.
  /// Safe from any thread, idempotent.
  void Quiesce();

  /// \brief Quiesces, flushes outstanding writes for up to
  /// `flush_timeout_ms`, closes every connection, and joins the loop
  /// thread. Safe to call repeatedly and from multiple threads.
  void Stop(int flush_timeout_ms = 0);

  /// \brief Queues pre-encoded frame bytes to a connection and wakes the
  /// loop. Returns false (dropping the bytes) when the loop is shutting
  /// down; bytes queued for a connection that died meanwhile are dropped
  /// silently on the loop thread. Either way the peer simply never hears
  /// back — exactly like a send-then-crash, which the client's retry
  /// policy already covers.
  bool Send(ConnId conn, std::string encoded);

  size_t open_connections() const { return open_conns_.load(); }
  uint16_t port() const { return port_; }

 private:
  struct Conn {
    ConnId id = 0;
    Socket socket;
    FrameAssembler assembler;
    std::string outbox;
    size_t outbox_off = 0;
    bool want_write = false;
    std::chrono::steady_clock::time_point last_active;
  };

  EventLoop(Listener listener, FrameHandler on_frame,
            EventLoopOptions options);

  Status SetUp();
  void Run();
  void Wake();
  void AcceptReady();
  void ReadReady(Conn* conn);
  bool FlushOutbox(Conn* conn);  // false when the conn died
  Status UpdateInterest(Conn* conn, bool want_read);
  void DropConn(ConnId id);
  void ApplyPendingOps();
  void ReapIdle(std::chrono::steady_clock::time_point now);

  Listener listener_;
  FrameHandler on_frame_;
  EventLoopOptions options_;
  uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  bool started_ = false;

  // Loop-thread-only state.
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  ConnId next_conn_id_ = 2;  // 0 tags the listener, 1 the wake eventfd
  std::chrono::steady_clock::time_point last_idle_scan_;
  bool reads_enabled_ = true;

  // Cross-thread command queue, drained by the loop thread.
  std::mutex pending_mutex_;
  std::vector<std::pair<ConnId, std::string>> pending_sends_;
  bool quiesce_requested_ = false;
  bool stop_requested_ = false;
  int flush_timeout_ms_ = 0;

  std::mutex stop_mutex_;  // serializes concurrent Stop() joins
  std::atomic<bool> accepting_commands_{false};
  std::atomic<size_t> open_conns_{0};
};

}  // namespace net
}  // namespace joinmi

#endif  // JOINMI_NET_EVENT_LOOP_H_
