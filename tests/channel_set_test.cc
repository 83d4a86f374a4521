// ChannelSet unit tests over socketpair-backed fake dialers: slot
// accounting around dial failures, verbatim dialer errors, Close()
// semantics (no dial after close, a Pick waiting on another thread's dial
// wakes), the max_channels bound under a concurrent hammer, and pruning of
// broken channels. End-to-end behaviour against real shard servers
// (reuse, pipelining, restarts, many distinct queries on one connection)
// lives in rpc_shard_test.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/discovery/rpc_channel.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {
namespace rpc {
namespace {

/// Dials by creating a socketpair: the ChannelSet gets one end, the fake
/// server keeps the other — parked, or served by a thread that echoes
/// every frame back under its request id.
class FakeServer {
 public:
  explicit FakeServer(bool echo = false) : echo_(echo) {}

  ~FakeServer() {
    // Echo threads exit when the client end closes (ChannelSet first).
    for (std::thread& thread : echoers_) thread.join();
  }

  ChannelSet::Dialer dialer() {
    return [this]() -> Result<net::Socket> {
      attempts_.fetch_add(1);
      int fds[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return Status::IOError("socketpair failed");
      }
      net::Socket peer(fds[1]);
      std::lock_guard<std::mutex> lock(mutex_);
      if (echo_) {
        echoers_.emplace_back([peer = std::move(peer)]() mutable {
          while (true) {
            auto frame = net::RecvFrame(&peer);
            if (!frame.ok()) return;
            if (!net::SendFrame(&peer, frame->type, frame->request_id,
                                frame->payload)
                     .ok()) {
              return;
            }
          }
        });
      } else {
        parked_.push_back(std::move(peer));
      }
      return net::Socket(fds[0]);
    };
  }

  /// Closes every parked server end (the client side sees EOF).
  void CloseAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_.clear();
  }

  uint64_t attempts() const { return attempts_.load(); }

 private:
  const bool echo_;
  std::atomic<uint64_t> attempts_{0};
  std::mutex mutex_;
  std::vector<net::Socket> parked_;
  std::vector<std::thread> echoers_;
};

constexpr int kTimeoutMs = 5000;

TEST(ChannelSetTest, FailedDialFreesItsSlotAndTheNextPickDialsAgain) {
  FakeServer server;
  std::atomic<int> calls{0};
  ChannelSet set(
      [&]() -> Result<net::Socket> {
        if (calls.fetch_add(1) == 0) {
          return Status::IOError("connection refused");
        }
        return server.dialer()();
      },
      /*max_channels=*/1, kTimeoutMs);
  auto failed = set.Pick();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(set.live_channels(), 0u);
  auto channel = set.Pick();  // the slot is free again: this dials
  ASSERT_TRUE(channel.ok()) << channel.status();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(set.dials(), 1u);  // only successful dials count
  EXPECT_EQ(set.live_channels(), 1u);
}

TEST(ChannelSetTest, DialerErrorComesBackVerbatim) {
  ChannelSet set(
      []() -> Result<net::Socket> {
        return Status::InvalidArgument("handshake config mismatch");
      },
      /*max_channels=*/2, kTimeoutMs);
  auto channel = set.Pick();
  ASSERT_FALSE(channel.ok());
  EXPECT_TRUE(channel.status().IsInvalidArgument());
  EXPECT_EQ(channel.status().message(), "handshake config mismatch");
  EXPECT_EQ(set.dials(), 0u);
}

TEST(ChannelSetTest, PickAfterCloseFailsWithoutDialing) {
  FakeServer server;
  ChannelSet set(server.dialer(), /*max_channels=*/2, kTimeoutMs);
  set.Close();
  auto channel = set.Pick();
  ASSERT_FALSE(channel.ok());
  EXPECT_TRUE(channel.status().IsIOError()) << channel.status();
  EXPECT_EQ(server.attempts(), 0u);
  set.Close();  // idempotent
}

TEST(ChannelSetTest, CloseWakesAPickWaitingOnAnotherThreadsDial) {
  // Thread A's dial hangs until released; thread B, finding no channel and
  // no capacity, waits for it. Close() must wake B with an error, and A's
  // late dial must not install a channel into the closed set.
  FakeServer server;
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> dialing{false};
  ChannelSet set(
      [&]() -> Result<net::Socket> {
        dialing.store(true);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
        return server.dialer()();
      },
      /*max_channels=*/1, kTimeoutMs);

  Status dialer_status = Status::OK();
  std::thread dialer_thread([&] { dialer_status = set.Pick().status(); });
  while (!dialing.load()) std::this_thread::yield();

  std::atomic<bool> woke{false};
  Status waiter_status = Status::OK();
  std::thread waiter([&] {
    waiter_status = set.Pick().status();
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());

  set.Close();
  waiter.join();
  EXPECT_TRUE(waiter_status.IsIOError()) << waiter_status;
  EXPECT_NE(waiter_status.message().find("closed"), std::string::npos)
      << waiter_status;

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  dialer_thread.join();
  EXPECT_TRUE(dialer_status.IsIOError()) << dialer_status;
  EXPECT_EQ(set.live_channels(), 0u);
  EXPECT_EQ(set.dials(), 0u);
}

TEST(ChannelSetTest, HammerNeverDialsPastMaxChannels) {
  // Every call holds its channel busy until the echo returns, so 8 threads
  // keep wanting more channels than the set may have.
  FakeServer server(/*echo=*/true);
  const size_t max_channels = 3;
  auto set = std::make_unique<ChannelSet>(server.dialer(), max_channels,
                                          kTimeoutMs);
  const size_t num_threads = 8;
  const size_t calls_each = 50;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < calls_each; ++i) {
        auto channel = set->Pick();
        if (!channel.ok()) {
          statuses[t] = channel.status();
          return;
        }
        const std::string payload =
            std::to_string(t) + ":" + std::to_string(i);
        auto reply =
            (*channel)->Call(net::FrameType::kHealthRequest, payload);
        if (!reply.ok()) {
          statuses[t] = reply.status();
          return;
        }
        if (reply->payload != payload) {
          statuses[t] = Status::UnknownError("reply paired to wrong call");
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  EXPECT_GE(set->dials(), 1u);
  EXPECT_LE(set->dials(), max_channels);
  EXPECT_EQ(server.attempts(), set->dials());
  EXPECT_LE(set->live_channels(), max_channels);
  set.reset();  // closes the client ends so the echo threads finish
}

TEST(ChannelSetTest, BrokenChannelIsPrunedAndReplaced) {
  FakeServer server;
  ChannelSet set(server.dialer(), /*max_channels=*/1, kTimeoutMs);
  auto first = set.Pick();
  ASSERT_TRUE(first.ok()) << first.status();
  auto again = set.Pick();  // healthy and idle: reused, not re-dialed
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  EXPECT_EQ(set.dials(), 1u);

  server.CloseAll();  // the server side hangs up
  for (int i = 0; i < 500 && !(*first)->broken(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE((*first)->broken());

  auto replacement = set.Pick();
  ASSERT_TRUE(replacement.ok()) << replacement.status();
  EXPECT_NE(replacement->get(), first->get());
  EXPECT_FALSE((*replacement)->broken());
  EXPECT_EQ(set.dials(), 2u);
  EXPECT_EQ(set.live_channels(), 1u);
}

}  // namespace
}  // namespace rpc
}  // namespace joinmi
