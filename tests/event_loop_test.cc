// EventLoop tests over real loopback TCP: echo serving, out-of-order
// completion matched by request_id (the pipelining substrate),
// per-connection isolation of frame-stream corruption, idle reaping, and
// prompt/idempotent shutdown. Handlers run on the loop thread here (the
// real server dispatches to a pool; the loop does not care).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {
namespace net {
namespace {

struct LoopFixture {
  std::unique_ptr<EventLoop> loop;

  /// Starts a loop that answers every frame through `reply` (echoing when
  /// `reply` is empty).
  void Start(std::function<std::string(const Frame&)> reply = nullptr,
             EventLoopOptions options = {}) {
    auto listener = Listener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    auto created = EventLoop::Create(
        std::move(*listener),
        [this, reply](EventLoop::ConnId conn, Frame frame) {
          const std::string encoded =
              reply != nullptr
                  ? reply(frame)
                  : EncodeFrame(frame.type, frame.request_id,
                                frame.payload);
          loop->Send(conn, encoded);
        },
        options);
    ASSERT_TRUE(created.ok()) << created.status();
    loop = std::move(*created);
    ASSERT_TRUE(loop->Start().ok());
  }

  Result<Socket> Dial() {
    return Socket::Connect("127.0.0.1", loop->port(), 2000);
  }
};

TEST(EventLoopTest, EchoesFramesOnManyConnections) {
  LoopFixture fixture;
  fixture.Start();
  for (int c = 0; c < 3; ++c) {
    auto socket = fixture.Dial();
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(socket->SetTimeouts(2000, 2000).ok());
    for (int q = 0; q < 4; ++q) {
      const std::string payload =
          "conn " + std::to_string(c) + " frame " + std::to_string(q);
      ASSERT_TRUE(
          SendFrame(&*socket, FrameType::kSearchRequest, q, payload)
              .ok());
      auto echoed = RecvFrame(&*socket);
      ASSERT_TRUE(echoed.ok()) << echoed.status();
      EXPECT_EQ(echoed->type, FrameType::kSearchRequest);
      EXPECT_EQ(echoed->request_id, static_cast<uint64_t>(q));
      EXPECT_EQ(echoed->payload, payload);
    }
  }
  fixture.loop->Stop(1000);
}

TEST(EventLoopTest, ResponsesCompleteOutOfOrderMatchedByRequestId) {
  // Two requests are pipelined before any response is read; each answer is
  // paired to its request solely by the request_id echoed in the header,
  // regardless of the order the responses arrive in.
  LoopFixture fixture;
  fixture.Start([&](const Frame& frame) -> std::string {
    return EncodeFrame(FrameType::kSearchResponse, frame.request_id,
                       "answer " + std::to_string(frame.request_id));
  });

  auto socket = fixture.Dial();
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->SetTimeouts(2000, 2000).ok());
  // Pipeline both requests before reading anything.
  ASSERT_TRUE(
      SendFrame(&*socket, FrameType::kSearchRequest, 1, "one").ok());
  ASSERT_TRUE(
      SendFrame(&*socket, FrameType::kSearchRequest, 2, "two").ok());
  std::map<uint64_t, std::string> answers;
  for (int i = 0; i < 2; ++i) {
    auto frame = RecvFrame(&*socket);
    ASSERT_TRUE(frame.ok()) << frame.status();
    answers[frame->request_id] = frame->payload;
  }
  EXPECT_EQ(answers[1], "answer 1");
  EXPECT_EQ(answers[2], "answer 2");
  fixture.loop->Stop(1000);
}

TEST(EventLoopTest, CorruptStreamDropsThatConnectionOnly) {
  LoopFixture fixture;
  fixture.Start();
  auto good = fixture.Dial();
  auto bad = fixture.Dial();
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(good->SetTimeouts(2000, 2000).ok());
  ASSERT_TRUE(bad->SetTimeouts(2000, 2000).ok());

  const std::string garbage = "XXXXYYYYZZZZWWWW not a frame";
  ASSERT_TRUE(bad->WriteAll(garbage.data(), garbage.size()).ok());
  // The corrupt connection dies (read returns peer-close soon)...
  char byte = 0;
  EXPECT_FALSE(bad->ReadExact(&byte, 1).ok());
  // ...while the good one keeps serving.
  ASSERT_TRUE(SendFrame(&*good, FrameType::kHealthRequest, 1, "ok?").ok());
  auto echoed = RecvFrame(&*good);
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(echoed->payload, "ok?");
  // Only the corrupt connection was dropped.
  for (int i = 0; i < 100 && fixture.loop->open_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fixture.loop->open_connections(), 1u);
  fixture.loop->Stop(1000);
}

TEST(EventLoopTest, IdleConnectionsAreReaped) {
  LoopFixture fixture;
  EventLoopOptions options;
  options.idle_timeout_ms = 100;
  options.poll_interval_ms = 20;
  fixture.Start(nullptr, options);
  auto socket = fixture.Dial();
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket->SetTimeouts(3000, 3000).ok());
  // Wait out the idle timeout plus the 1s reaper scan period.
  char byte = 0;
  EXPECT_FALSE(socket->ReadExact(&byte, 1).ok());  // server closed us
  for (int i = 0; i < 200 && fixture.loop->open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.loop->open_connections(), 0u);
  fixture.loop->Stop(1000);
}

TEST(EventLoopTest, StopIsIdempotentAndConcurrentlySafe) {
  LoopFixture fixture;
  fixture.Start();
  auto socket = fixture.Dial();
  ASSERT_TRUE(socket.ok());
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] { fixture.loop->Stop(500); });
  }
  for (std::thread& thread : stoppers) thread.join();
  fixture.loop->Stop(500);  // and again, after it already stopped
  EXPECT_EQ(fixture.loop->open_connections(), 0u);
  // Sends after Stop are refused, not crashed.
  EXPECT_FALSE(fixture.loop->Send(2, "bytes"));
}

TEST(EventLoopTest, QuiesceStopsNewFramesButFlushesPendingWrites) {
  LoopFixture fixture;
  fixture.Start();
  auto socket = fixture.Dial();
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket->SetTimeouts(2000, 2000).ok());
  ASSERT_TRUE(SendFrame(&*socket, FrameType::kHealthRequest, 1, "pre").ok());
  auto echoed = RecvFrame(&*socket);
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  fixture.loop->Quiesce();
  // Give the loop one wakeup to disable reads before the next frame lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A frame sent after quiesce gets no answer. (The write itself succeeds —
  // the kernel buffers it — but the loop never reads it.)
  ASSERT_TRUE(SendFrame(&*socket, FrameType::kHealthRequest, 2, "post").ok());
  ASSERT_TRUE(socket->SetTimeouts(300, 300).ok());
  EXPECT_FALSE(RecvFrame(&*socket).ok());
  fixture.loop->Stop(500);
}

}  // namespace
}  // namespace net
}  // namespace joinmi
