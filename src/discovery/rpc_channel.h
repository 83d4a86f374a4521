// Channel + ChannelSet: the client half of JMRP pipelining and the only
// owner of a shard client's connections.
//
// A Channel owns one handshaken connection for its whole lifetime and
// runs a dedicated reader thread plus a demux map: Call() stamps a fresh
// request_id, registers a waiter slot, sends under a write mutex, and
// blocks on its slot — many calls from many threads are simultaneously in
// flight on ONE connection, and the reader pairs whatever response
// arrives next with its waiter by id. A waiter that times out abandons
// its slot (a late response is dropped by id — the channel itself stays
// healthy); a read or write error breaks the channel and fails every
// pending waiter with the same IOError.
//
// A Channel also tracks which sketch digests this connection has uploaded
// (EnsureSketchUploaded is once-per-digest, idempotent server-side), so a
// query's serialized train sketch crosses the wire once per connection
// instead of once per request. The server caches a bounded number of
// sketches per connection; when it refuses one because that cache is
// full, the channel retires: calls already running finish, but Pick no
// longer hands it out, so the next request lands on a fresh connection.
//
// ChannelSet owns up to max_channels channels and routes each request to
// the live channel with the fewest calls in flight, dialing a new channel
// (through the injected dialer, which connects and runs the handshake)
// only when every existing channel is busy. Dialing is lazy and happens
// outside the set's lock, so one slow dial never blocks requests on other
// channels. Broken, retired and peer-closed channels are pruned on the
// next Pick; calls already running on one keep their shared_ptr until
// they finish. Close() poisons the set for shutdown.

#ifndef JOINMI_DISCOVERY_RPC_CHANNEL_H_
#define JOINMI_DISCOVERY_RPC_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {
namespace rpc {

/// \brief One JMRP connection, shared by concurrent requests.
class Channel {
 public:
  /// \brief Takes the handshaken connection for the channel's lifetime.
  /// `pipeline_hwm` (optional) receives the high-water mark of calls
  /// simultaneously in flight on this channel — the owner's proof of
  /// pipelining.
  Channel(net::Socket socket, int io_timeout_ms,
          std::atomic<size_t>* pipeline_hwm);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool broken() const;
  bool retired() const { return retired_.load(); }
  size_t in_flight() const { return in_flight_.load(); }

  /// \brief False once the channel broke, retired, or saw its peer close
  /// the connection; Pick hands out only usable channels. The peer check
  /// reads nothing, so responses already on their way still reach their
  /// waiters through the reader.
  bool usable() const;

  /// \brief One request/response exchange. Thread-safe. On failure,
  /// `*reached_wire` (optional, must start false) reports whether any
  /// request byte left this process — the only signal a retry or
  /// failover policy may act on. IOError failures break the channel
  /// (pending and future calls fail deterministically), EXCEPT a
  /// response timeout, which abandons only this call.
  Result<net::Frame> Call(net::FrameType type, const std::string& payload,
                          bool* reached_wire = nullptr);

  /// \brief Caches `bytes` server-side under `digest` once per channel;
  /// subsequent calls for the same digest are free. Safe to retry on a
  /// fresh channel after any failure — the upload is idempotent by
  /// digest. A refusal because the server's per-connection sketch cache
  /// is full retires this channel (if it holds any sketch already) and
  /// returns that refusal (rpc::IsSketchCacheFull).
  Status EnsureSketchUploaded(uint64_t digest, const std::string& bytes);

 private:
  struct Pending {
    bool ready = false;
    Status status = Status::OK();
    net::Frame frame;
  };

  /// Call's body: send under the write mutex, wait for the reader.
  Result<net::Frame> Exchange(net::FrameType type, const std::string& payload,
                              bool* reached_wire);
  void ReaderLoop();
  /// Fails every pending waiter and poisons the channel.
  void MarkBroken(const Status& status);

  net::Socket socket_;
  int io_timeout_ms_ = 30000;
  std::atomic<size_t>* pipeline_hwm_ = nullptr;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> stop_reader_{false};
  std::atomic<bool> retired_{false};

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  std::unordered_map<uint64_t, Pending*> pending_;
  bool broken_ = false;
  Status broken_status_ = Status::OK();

  std::mutex write_mutex_;  // serializes frame sends, nothing else

  std::mutex upload_mutex_;
  std::set<uint64_t> uploaded_digests_;

  std::thread reader_;
};

/// \brief Bounded set of channels to one endpoint with least-loaded
/// routing. Thread-safe.
class ChannelSet {
 public:
  /// \brief Opens one connection and runs the handshake. Runs outside the
  /// set's lock; a Status error is surfaced verbatim from Pick.
  using Dialer = std::function<Result<net::Socket>()>;

  /// `max_channels` below 1 is treated as 1; `io_timeout_ms` bounds each
  /// call's wait for its response.
  ChannelSet(Dialer dialer, size_t max_channels, int io_timeout_ms);
  /// Closes the set first (see Close).
  ~ChannelSet();

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  /// \brief Returns the channel to run one request on: the usable channel
  /// with the fewest in-flight calls, or a freshly dialed one when all
  /// are busy and capacity remains (a failed dial frees its slot, so the
  /// next Pick dials again). Errors from the dialer propagate verbatim —
  /// nothing was sent, so callers may treat them as retry-safe. After
  /// Close(), fails with a deterministic IOError and dials nothing.
  Result<std::shared_ptr<Channel>> Pick();

  /// \brief Poisons the set, wakes every Pick waiting on another thread's
  /// dial, and drops the set's channel references; in-flight calls finish
  /// on their own shared_ptrs. Idempotent.
  void Close();

  size_t live_channels() const;
  /// \brief Successful dials since construction (reuse keeps this flat).
  uint64_t dials() const;
  /// \brief High-water mark of calls simultaneously in flight on ONE
  /// channel — >= 2 proves pipelining actually happened.
  size_t max_pipelined() const { return pipeline_hwm_.load(); }

 private:
  Dialer dialer_;
  size_t max_channels_;
  int io_timeout_ms_;
  std::atomic<size_t> pipeline_hwm_{0};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Channel>> channels_;
  size_t dialing_ = 0;
  uint64_t dials_ = 0;
  bool closed_ = false;
};

}  // namespace rpc
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_CHANNEL_H_
