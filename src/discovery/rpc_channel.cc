#include "src/discovery/rpc_channel.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "src/discovery/rpc_messages.h"

namespace joinmi {
namespace rpc {

Channel::Channel(net::Socket socket, int io_timeout_ms,
                 std::atomic<size_t>* pipeline_hwm)
    : socket_(std::move(socket)),
      io_timeout_ms_(io_timeout_ms),
      pipeline_hwm_(pipeline_hwm) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

Channel::~Channel() {
  stop_reader_.store(true);
  // Wakes the reader's poll at once, so dropping a retired (still
  // healthy) channel does not wait out the poll timeout.
  ::shutdown(socket_.fd(), SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
}

bool Channel::broken() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return broken_;
}

bool Channel::usable() const {
  return !broken() && !retired() && !socket_.PeerClosed();
}

void Channel::MarkBroken(const Status& status) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (broken_) return;
  broken_ = true;
  broken_status_ = status;
  for (auto& entry : pending_) {
    entry.second->status = status;
    entry.second->ready = true;
  }
  state_cv_.notify_all();
}

void Channel::ReaderLoop() {
  const int fd = socket_.fd();
  while (!stop_reader_.load()) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (stop_reader_.load()) break;
    if (ready == 0) continue;
    if (ready < 0) {
      if (errno == EINTR) continue;
      MarkBroken(Status::IOError("response reader poll failed"));
      return;
    }
    // Readable: the blocking RecvFrame finishes promptly (the socket's
    // receive timeout still bounds a peer that stalls mid-frame).
    auto frame = net::RecvFrame(&socket_);
    if (!frame.ok()) {
      MarkBroken(frame.status());
      return;
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto waiter = pending_.find(frame->request_id);
    if (waiter == pending_.end()) continue;  // timed-out caller: drop
    waiter->second->frame = std::move(*frame);
    waiter->second->status = Status::OK();
    waiter->second->ready = true;
    state_cv_.notify_all();
  }
}

Result<net::Frame> Channel::Call(net::FrameType type,
                                 const std::string& payload,
                                 bool* reached_wire) {
  const size_t now = in_flight_.fetch_add(1) + 1;
  if (pipeline_hwm_ != nullptr) {
    size_t seen = pipeline_hwm_->load();
    while (seen < now &&
           !pipeline_hwm_->compare_exchange_weak(seen, now)) {
    }
  }
  auto result = Exchange(type, payload, reached_wire);
  in_flight_.fetch_sub(1);
  return result;
}

Result<net::Frame> Channel::Exchange(net::FrameType type,
                                     const std::string& payload,
                                     bool* reached_wire) {
  Pending pending;
  const uint64_t id = next_id_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (broken_) {
      return Status::IOError("channel is broken: " +
                             broken_status_.message());
    }
    pending_.emplace(id, &pending);
  }
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    size_t bytes_written = 0;
    Status sent =
        net::SendFrame(&socket_, type, id, payload, &bytes_written);
    if (!sent.ok()) {
      // A partial write reached the wire AND corrupted the frame stream;
      // a zero-byte failure is provably un-sent. Either way this channel
      // is done.
      if (bytes_written > 0 && reached_wire != nullptr) *reached_wire = true;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        pending_.erase(id);
      }
      MarkBroken(sent);
      return sent;
    }
  }
  if (reached_wire != nullptr) *reached_wire = true;
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::milliseconds(io_timeout_ms_),
                     [&] { return pending.ready; });
  pending_.erase(id);
  if (!pending.ready) {
    // Abandon this call only; the reader drops the late response by id.
    return Status::IOError("timed out waiting for response " +
                           std::to_string(id));
  }
  if (!pending.status.ok()) return pending.status;
  return std::move(pending.frame);
}

Status Channel::EnsureSketchUploaded(uint64_t digest,
                                     const std::string& bytes) {
  // Held across the exchange so concurrent callers with the same digest
  // upload once, not racing duplicates (the server tolerates duplicates,
  // but re-sending the sketch wastes exactly the bytes the cache exists
  // to save).
  std::lock_guard<std::mutex> upload_lock(upload_mutex_);
  if (uploaded_digests_.count(digest) > 0) return Status::OK();
  SketchUploadRequest request;
  request.digest = digest;
  request.train_sketch = bytes;
  JOINMI_ASSIGN_OR_RETURN(
      net::Frame reply, Call(net::FrameType::kSketchUploadRequest,
                             EncodeSketchUploadRequest(request), nullptr));
  if (reply.type == net::FrameType::kError) {
    Status server_error = Status::OK();
    JOINMI_RETURN_NOT_OK(DecodeErrorPayload(reply.payload, &server_error));
    return server_error;
  }
  if (reply.type != net::FrameType::kSketchUploadResponse) {
    return Status::IOError(
        std::string("shard answered a sketch upload with a ") +
        net::FrameTypeToString(reply.type) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(SketchUploadResponse response,
                          DecodeSketchUploadResponse(reply.payload));
  if (!response.status.ok()) {
    // A full cache refuses every new sketch on this connection from now
    // on, so step aside for a fresh one. A channel holding no sketch yet
    // stays: a server refusing the very first upload would refuse it on
    // any connection, and retiring would only spin up new ones.
    if (IsSketchCacheFull(response.status) && !uploaded_digests_.empty()) {
      retired_.store(true);
    }
    return response.status;
  }
  if (response.digest != digest) {
    return Status::IOError("shard acknowledged digest " +
                           std::to_string(response.digest) +
                           " for an upload of digest " +
                           std::to_string(digest));
  }
  uploaded_digests_.insert(digest);
  return Status::OK();
}

ChannelSet::ChannelSet(Dialer dialer, size_t max_channels,
                       int io_timeout_ms)
    : dialer_(std::move(dialer)),
      max_channels_(std::max<size_t>(1, max_channels)),
      io_timeout_ms_(io_timeout_ms) {}

ChannelSet::~ChannelSet() { Close(); }

Result<std::shared_ptr<Channel>> ChannelSet::Pick() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (closed_) return Status::IOError("channel set is closed");
    channels_.erase(
        std::remove_if(channels_.begin(), channels_.end(),
                       [](const std::shared_ptr<Channel>& channel) {
                         return !channel->usable();
                       }),
        channels_.end());
    std::shared_ptr<Channel> best;
    size_t best_load = 0;
    for (const auto& channel : channels_) {
      const size_t load = channel->in_flight();
      if (best == nullptr || load < best_load) {
        best = channel;
        best_load = load;
      }
    }
    if (best != nullptr && best_load == 0) return best;
    if (channels_.size() + dialing_ < max_channels_) {
      ++dialing_;
      lock.unlock();
      auto dialed = dialer_();
      lock.lock();
      --dialing_;
      cv_.notify_all();
      if (!dialed.ok()) return dialed.status();
      // Closed mid-dial: the fresh socket closes here, unused.
      if (closed_) return Status::IOError("channel set is closed");
      ++dials_;
      auto channel = std::make_shared<Channel>(std::move(*dialed),
                                               io_timeout_ms_, &pipeline_hwm_);
      channels_.push_back(channel);
      return channel;
    }
    // At capacity and everything busy: the least-loaded channel pipelines
    // this request alongside the others.
    if (best != nullptr) return best;
    // No channels at all but other threads are mid-dial: wait for them.
    cv_.wait(lock);
  }
}

void ChannelSet::Close() {
  std::vector<std::shared_ptr<Channel>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    doomed.swap(channels_);
  }
  cv_.notify_all();
  // Channel destructors (reader joins) run outside the lock; calls still
  // running keep their own references.
  doomed.clear();
}

size_t ChannelSet::live_channels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return channels_.size();
}

uint64_t ChannelSet::dials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dials_;
}

}  // namespace rpc
}  // namespace joinmi
