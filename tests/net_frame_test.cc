// Tests for the JMRP wire layer: frame decoding under truncation,
// oversized length prefixes, bad magic/version/type tags (retired v1 and
// v2 headers included); frame transport over a real socketpair; and the
// typed rpc message codecs (handshake, upload, search, health, error)
// including their corruption rejection and the frozen bytes of a search
// response. The shard-serving protocol's
// safety against a corrupt or hostile peer lives entirely in these
// decoders.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>

#include "src/discovery/rpc_messages.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/sketch/serialize.h"

namespace joinmi {
namespace {

using net::DecodeFrame;
using net::EncodeFrame;
using net::Frame;
using net::FrameType;

// ------------------------------------------------------------ Frame codec

TEST(FrameCodecTest, RoundTripsEveryType) {
  for (FrameType type :
       {FrameType::kHandshakeRequest, FrameType::kHandshakeResponse,
        FrameType::kHealthRequest, FrameType::kHealthResponse,
        FrameType::kError, FrameType::kSketchUploadRequest,
        FrameType::kSketchUploadResponse, FrameType::kSearchRequest,
        FrameType::kSearchResponse, FrameType::kStatsRequest,
        FrameType::kStatsResponse, FrameType::kReloadRequest,
        FrameType::kReloadResponse}) {
    const uint64_t id = 0x1122334455667788ULL;
    const std::string payload = "payload for " +
                                std::string(net::FrameTypeToString(type));
    const std::string encoded = EncodeFrame(type, id, payload);
    EXPECT_EQ(encoded.size(), net::kFrameHeaderSize + payload.size());
    auto decoded = DecodeFrame(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->request_id, id);
    EXPECT_EQ(decoded->payload, payload);
  }
}

TEST(FrameCodecTest, RoundTripsEmptyPayload) {
  const std::string encoded = EncodeFrame(FrameType::kHealthRequest, 0, "");
  auto decoded = DecodeFrame(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameCodecTest, RejectsBadMagic) {
  std::string encoded = EncodeFrame(FrameType::kSearchRequest, 1, "x");
  encoded[0] = 'X';
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(FrameCodecTest, RejectsWrongProtocolVersion) {
  for (uint32_t bogus : {0u, net::kProtocolVersion + 1}) {
    std::string encoded = EncodeFrame(FrameType::kSearchRequest, 1, "x");
    std::memcpy(&encoded[4], &bogus, sizeof(bogus));
    auto decoded = DecodeFrame(encoded);
    ASSERT_FALSE(decoded.ok()) << bogus;
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
        << decoded.status();
  }
  // Both retired dialects get the one unsupported-version message, which
  // names the version this build speaks.
  for (uint32_t retired : {1u, 2u}) {
    std::string old = EncodeFrame(FrameType::kHealthRequest, 0, "");
    std::memcpy(&old[4], &retired, sizeof(retired));
    auto decoded = DecodeFrame(old);
    ASSERT_FALSE(decoded.ok()) << retired;
    EXPECT_EQ(decoded.status().message(),
              "unsupported JMRP protocol version " +
                  std::to_string(retired) +
                  " (this build speaks only JMRP v3)");
  }
}

TEST(FrameCodecTest, RejectsUnknownFrameType) {
  std::string encoded = EncodeFrame(FrameType::kSearchRequest, 1, "x");
  // Below the first valid tag, the two retired search tags, and above the
  // last valid tag.
  for (char tag : {0, 3, 4, 16, 99}) {
    encoded[8] = tag;
    EXPECT_FALSE(DecodeFrame(encoded).ok()) << static_cast<int>(tag);
  }
}

TEST(FrameCodecTest, RejectsTruncationAtEveryLength) {
  // Covers every field boundary: bytes 13..20 are the request_id.
  const std::string encoded =
      EncodeFrame(FrameType::kSearchRequest, 77, "some payload bytes");
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(encoded.substr(0, len)).ok()) << len;
  }
  ASSERT_TRUE(DecodeFrame(encoded).ok());
}

TEST(FrameCodecTest, RejectsTrailingBytes) {
  const std::string encoded = EncodeFrame(FrameType::kError, 1, "abc");
  EXPECT_FALSE(DecodeFrame(encoded + "z").ok());
}

TEST(FrameCodecTest, RejectsOversizedLengthPrefix) {
  // A header whose declared payload length exceeds the hard bound must be
  // rejected before any allocation happens — craft it by hand.
  std::string encoded = EncodeFrame(FrameType::kSearchRequest, 1, "");
  const uint32_t huge = net::kMaxFramePayload + 1;
  std::memcpy(&encoded[9], &huge, sizeof(huge));
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("bound"), std::string::npos);
}

TEST(FrameCodecTest, SendRefusesOversizedPayload) {
  // SendFrame's own guard (the socket never sees the bytes). Socket is
  // default-constructed/invalid; the size check fires first.
  net::Socket invalid;
  std::string big;
  big.resize(net::kMaxFramePayload + 1);
  const Status status =
      net::SendFrame(&invalid, FrameType::kSearchRequest, 1, big);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

// ------------------------------------------------------- Socket transport

/// A connected local socket pair for transport tests without TCP setup.
struct SocketPair {
  net::Socket a;
  net::Socket b;
};

SocketPair MakeSocketPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketPair pair;
  pair.a = net::Socket(fds[0]);
  pair.b = net::Socket(fds[1]);
  return pair;
}

TEST(FrameTransportTest, SendsAndReceivesOverSocketPair) {
  SocketPair pair = MakeSocketPair();
  const std::string payload(100000, 'q');  // bigger than one segment
  std::thread sender([&pair, &payload] {
    ASSERT_TRUE(net::SendFrame(&pair.a, FrameType::kSearchResponse,
                               31337, payload)
                    .ok());
  });
  auto frame = net::RecvFrame(&pair.b);
  sender.join();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, FrameType::kSearchResponse);
  EXPECT_EQ(frame->request_id, 31337u);
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTransportTest, PeerCloseSurfacesAsClosedError) {
  SocketPair pair = MakeSocketPair();
  pair.a.Close();
  auto frame = net::RecvFrame(&pair.b);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("closed"), std::string::npos);
}

TEST(FrameTransportTest, GarbageOnTheWireIsRejected) {
  SocketPair pair = MakeSocketPair();
  const std::string garbage = "this is not a JMRP frame, sorry";
  ASSERT_TRUE(pair.a.WriteAll(garbage.data(), garbage.size()).ok());
  pair.a.Close();
  EXPECT_FALSE(net::RecvFrame(&pair.b).ok());
}

TEST(FrameTransportTest, ReportsBytesWrittenOnClosedPeer) {
  SocketPair pair = MakeSocketPair();
  pair.b.Close();
  // Writing into a closed pair eventually fails (EPIPE, not SIGPIPE);
  // bytes_written must reflect what actually left, which the retry policy
  // depends on. The first small write may be buffered, so push enough.
  std::string big(1 << 22, 'x');
  size_t written = 12345;
  Status status = Status::OK();
  for (int i = 0; i < 8 && status.ok(); ++i) {
    status = pair.a.WriteAll(big.data(), big.size(), &written);
  }
  ASSERT_FALSE(status.ok());
}

// ---------------------------------------------------------- Message codecs

TEST(RpcMessageTest, StatusRoundTrips) {
  for (const Status& status :
       {Status::OK(), Status::InvalidArgument("bad arg"),
        Status::IOError("io"), Status::OutOfRange(""),
        Status::UnknownError("???")}) {
    std::string buffer;
    rpc::AppendStatus(&buffer, status);
    wire::Reader reader(buffer);
    Status decoded;
    ASSERT_TRUE(rpc::ReadStatus(&reader, &decoded).ok());
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
  }
}

TEST(RpcMessageTest, StatusRejectsUnknownCodeTag) {
  std::string buffer;
  rpc::AppendStatus(&buffer, Status::IOError("x"));
  buffer[0] = 99;
  wire::Reader reader(buffer);
  Status decoded;
  EXPECT_FALSE(rpc::ReadStatus(&reader, &decoded).ok());
}

TEST(RpcMessageTest, HandshakeResponseRoundTrips) {
  rpc::HandshakeResponse response;
  response.config.sketch_capacity = 512;
  response.config.hash_seed = 77;
  response.config.min_join_size = 100;
  response.config.estimator = MIEstimatorKind::kMixedKSG;
  response.num_candidates = 12345;
  const std::string payload = rpc::EncodeHandshakeResponse(response);
  auto decoded = rpc::DecodeHandshakeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->config == response.config);
  EXPECT_EQ(decoded->num_candidates, 12345u);
  EXPECT_FALSE(rpc::DecodeHandshakeResponse(payload + "x").ok());
}

TEST(RpcMessageTest, SearchResponseRoundTripsHitsExactly) {
  rpc::SearchResponse response;
  response.status = Status::OK();
  response.result.num_candidates = 10;
  response.result.num_evaluated = 8;
  response.result.num_skipped = 1;
  response.result.num_errors = 1;
  SearchHit hit;
  hit.global_index = 42;
  hit.candidate = ColumnPairRef{"weather", "zip", "temp"};
  hit.estimate.mi = 1.25;
  hit.estimate.estimator = MIEstimatorKind::kDCKSG;
  hit.estimate.sample_size = 256;
  hit.estimate.sketched = true;
  response.result.hits.push_back(hit);
  hit.global_index = 7;
  hit.estimate.mi = 0.5;
  response.result.hits.push_back(hit);

  const std::string payload = rpc::EncodeSearchResponse(response);
  auto decoded = rpc::DecodeSearchResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->result.num_candidates, 10u);
  EXPECT_EQ(decoded->result.num_evaluated, 8u);
  EXPECT_EQ(decoded->result.num_skipped, 1u);
  EXPECT_EQ(decoded->result.num_errors, 1u);
  ASSERT_EQ(decoded->result.hits.size(), 2u);
  EXPECT_EQ(decoded->result.hits[0].global_index, 42u);
  EXPECT_EQ(decoded->result.hits[0].candidate.table_name, "weather");
  EXPECT_EQ(decoded->result.hits[0].candidate.key_column, "zip");
  EXPECT_EQ(decoded->result.hits[0].candidate.value_column, "temp");
  EXPECT_EQ(decoded->result.hits[0].estimate.mi, 1.25);
  EXPECT_EQ(decoded->result.hits[0].estimate.estimator,
            MIEstimatorKind::kDCKSG);
  EXPECT_EQ(decoded->result.hits[0].estimate.sample_size, 256u);
  EXPECT_TRUE(decoded->result.hits[0].estimate.sketched);
  EXPECT_EQ(decoded->result.hits[1].global_index, 7u);
  EXPECT_EQ(decoded->result.hits[1].estimate.mi, 0.5);

  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(rpc::DecodeSearchResponse(payload.substr(0, len)).ok())
        << len;
  }
}

TEST(RpcMessageTest, ErrorSearchResponseCarriesStatusOnly) {
  rpc::SearchResponse response;
  response.status = Status::OutOfRange("join too small");
  const std::string payload = rpc::EncodeSearchResponse(response);
  auto decoded = rpc::DecodeSearchResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.IsOutOfRange());
  EXPECT_EQ(decoded->status.message(), "join too small");
  EXPECT_TRUE(decoded->result.hits.empty());
}

// Lower-case hex of `bytes`, for comparing encodings with frozen literals.
std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex += kDigits[static_cast<unsigned char>(c) >> 4];
    hex += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  return hex;
}

TEST(RpcMessageTest, SearchResponseBytesAreFrozen) {
  // The protocol-version-3 bytes of two fixed responses and an error
  // payload. A round trip cannot catch a layout change its encoder and
  // decoder make together; these literals can.
  rpc::SearchResponse response;
  response.result.num_candidates = 10;
  response.result.num_evaluated = 7;
  response.result.num_skipped = 2;
  response.result.num_errors = 1;
  SearchHit hit;
  hit.candidate = ColumnPairRef{"weather", "zip", "temp"};
  hit.estimate = JoinMIEstimate{1.25, MIEstimatorKind::kDCKSG, 256, true};
  hit.global_index = 42;
  response.result.hits.push_back(hit);
  hit.candidate = ColumnPairRef{"t", "k", "v"};
  hit.estimate = JoinMIEstimate{0.5, MIEstimatorKind::kMLE, 3, false};
  hit.global_index = 0x0102030405060708ULL;
  response.result.hits.push_back(hit);
  const std::string payload = rpc::EncodeSearchResponse(response);
  EXPECT_EQ(ToHex(payload),
            "00000000000a00000000000000070000"
            "00000000000200000000000000010000"
            "000000000002000000000000002a0000"
            "00000000000700000077656174686572"
            "030000007a69700400000074656d7000"
            "0000000000f43f050001000000000000"
            "01080706050403020101000000740100"
            "00006b0100000076000000000000e03f"
            "00030000000000000000");
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kSearchResponse, 21, payload))
                .substr(0, 42),
            "4a4d5250030000000b8a0000001500000000000000");
  auto decoded = rpc::DecodeSearchResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->result.num_candidates, 10u);
  EXPECT_EQ(decoded->result.num_evaluated, 7u);
  EXPECT_EQ(decoded->result.num_skipped, 2u);
  EXPECT_EQ(decoded->result.num_errors, 1u);
  ASSERT_EQ(decoded->result.hits.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const SearchHit& want = response.result.hits[i];
    const SearchHit& got = decoded->result.hits[i];
    EXPECT_EQ(got.global_index, want.global_index) << i;
    EXPECT_EQ(got.candidate.ToString(), want.candidate.ToString()) << i;
    EXPECT_EQ(got.estimate.mi, want.estimate.mi) << i;
    EXPECT_EQ(got.estimate.estimator, want.estimate.estimator) << i;
    EXPECT_EQ(got.estimate.sample_size, want.estimate.sample_size) << i;
    EXPECT_EQ(got.estimate.sketched, want.estimate.sketched) << i;
  }

  rpc::SearchResponse error;
  error.status = Status::OutOfRange("k too big");
  const std::string error_payload = rpc::EncodeSearchResponse(error);
  EXPECT_EQ(ToHex(error_payload), "05090000006b20746f6f20626967");
  auto decoded_error = rpc::DecodeSearchResponse(error_payload);
  ASSERT_TRUE(decoded_error.ok()) << decoded_error.status();
  EXPECT_TRUE(decoded_error->status.IsOutOfRange());
  EXPECT_EQ(decoded_error->status.message(), "k too big");
  EXPECT_TRUE(decoded_error->result.hits.empty());

  const std::string frame_error =
      rpc::EncodeErrorPayload(Status::IOError("shard on fire"));
  EXPECT_EQ(ToHex(frame_error), "070d0000007368617264206f6e2066697265");
  Status server_error;
  ASSERT_TRUE(rpc::DecodeErrorPayload(frame_error, &server_error).ok());
  EXPECT_TRUE(server_error.IsIOError());
  EXPECT_EQ(server_error.message(), "shard on fire");
}

TEST(RpcMessageTest, SearchResponseRejectsLyingHitCount) {
  rpc::SearchResponse response;
  response.status = Status::OK();
  const std::string payload = rpc::EncodeSearchResponse(response);
  // The hit count is the last u64; claim many hits with no bytes behind
  // them. The divide-side bound check must reject before reserving.
  std::string lying = payload;
  const uint64_t huge = ~0ULL / 2;
  std::memcpy(&lying[lying.size() - 8], &huge, sizeof(huge));
  EXPECT_FALSE(rpc::DecodeSearchResponse(lying).ok());
}

TEST(RpcMessageTest, HealthAndErrorRoundTrip) {
  rpc::HealthResponse health;
  health.num_candidates = 31;
  health.requests_served = 99;
  auto decoded_health =
      rpc::DecodeHealthResponse(rpc::EncodeHealthResponse(health));
  ASSERT_TRUE(decoded_health.ok());
  EXPECT_EQ(decoded_health->num_candidates, 31u);
  EXPECT_EQ(decoded_health->requests_served, 99u);
  EXPECT_FALSE(rpc::DecodeHealthResponse("short").ok());

  Status decoded_error;
  ASSERT_TRUE(rpc::DecodeErrorPayload(
                  rpc::EncodeErrorPayload(Status::IOError("shard on fire")),
                  &decoded_error)
                  .ok());
  EXPECT_TRUE(decoded_error.IsIOError());
  EXPECT_EQ(decoded_error.message(), "shard on fire");
}

// --------------------------------------------------------- FrameAssembler

TEST(FrameAssemblerTest, AssemblesFramesFedByteAtATime) {
  const std::string stream =
      EncodeFrame(FrameType::kSketchUploadRequest, 4, "first") +
      EncodeFrame(FrameType::kSearchRequest, 5, "second") +
      EncodeFrame(FrameType::kHealthRequest, 6, "");
  net::FrameAssembler assembler;
  std::vector<Frame> frames;
  for (char byte : stream) {
    assembler.Feed(&byte, 1);
    Frame frame;
    auto ready = assembler.Next(&frame);
    ASSERT_TRUE(ready.ok()) << ready.status();
    if (*ready) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kSketchUploadRequest);
  EXPECT_EQ(frames[0].request_id, 4u);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].type, FrameType::kSearchRequest);
  EXPECT_EQ(frames[1].request_id, 5u);
  EXPECT_EQ(frames[1].payload, "second");
  EXPECT_EQ(frames[2].type, FrameType::kHealthRequest);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssemblerTest, DrainsManyFramesFromOneFeed) {
  std::string stream;
  for (uint64_t id = 0; id < 20; ++id) {
    stream += EncodeFrame(FrameType::kSearchRequest, id,
                          std::string(id, 'x'));
  }
  net::FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  for (uint64_t id = 0; id < 20; ++id) {
    Frame frame;
    auto ready = assembler.Next(&frame);
    ASSERT_TRUE(ready.ok());
    ASSERT_TRUE(*ready) << id;
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.payload.size(), id);
  }
  Frame frame;
  auto ready = assembler.Next(&frame);
  ASSERT_TRUE(ready.ok());
  EXPECT_FALSE(*ready);
}

// Feeds `bad`, expects the assembler to reject it, then checks that a
// later valid frame cannot resynchronize the corrupt byte stream.
Status ExpectPoisoned(const std::string& bad) {
  net::FrameAssembler assembler;
  assembler.Feed(bad.data(), bad.size());
  Frame frame;
  auto first = assembler.Next(&frame);
  EXPECT_FALSE(first.ok());
  const std::string good = EncodeFrame(FrameType::kHealthRequest, 2, "");
  assembler.Feed(good.data(), good.size());
  EXPECT_FALSE(assembler.Next(&frame).ok());
  return first.ok() ? Status::OK() : first.status();
}

TEST(FrameAssemblerTest, PoisonsOnCorruptHeaderAndStaysPoisoned) {
  std::string bad_magic = EncodeFrame(FrameType::kSearchRequest, 1, "x");
  bad_magic[0] = 'Z';
  ExpectPoisoned(bad_magic);
  // A retired v1 header poisons the stream as soon as its version field
  // arrives — before the bytes a v1 frame never had — and says why.
  std::string v1 = EncodeFrame(FrameType::kHealthRequest, 0, "");
  const uint32_t one = 1;
  std::memcpy(&v1[4], &one, sizeof(one));
  const Status status = ExpectPoisoned(v1.substr(0, 13));
  EXPECT_NE(status.message().find("unsupported JMRP protocol version 1"),
            std::string::npos)
      << status;
}

// -------------------------------------------- Upload and search codecs

TEST(RpcMessageTest, SketchUploadRoundTripsAndRejectsCorruption) {
  rpc::SketchUploadRequest request;
  request.train_sketch = std::string("\x00\x01rawsketch", 11);
  request.digest = wire::Checksum64(request.train_sketch);
  const std::string payload = rpc::EncodeSketchUploadRequest(request);
  auto decoded = rpc::DecodeSketchUploadRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->digest, request.digest);
  EXPECT_EQ(decoded->train_sketch, request.train_sketch);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(rpc::DecodeSketchUploadRequest(payload.substr(0, len)).ok())
        << len;
  }
  EXPECT_FALSE(rpc::DecodeSketchUploadRequest(payload + "x").ok());

  rpc::SketchUploadResponse ack;
  ack.status = Status::InvalidArgument("cache full");
  ack.digest = 42;
  auto decoded_ack =
      rpc::DecodeSketchUploadResponse(rpc::EncodeSketchUploadResponse(ack));
  ASSERT_TRUE(decoded_ack.ok());
  EXPECT_TRUE(decoded_ack->status.IsInvalidArgument());
  EXPECT_EQ(decoded_ack->digest, 42u);
}

TEST(RpcMessageTest, SearchRequestRoundTripsAndRejectsCorruption) {
  rpc::SearchRequest request;
  request.sketch_digest = 0xfeedbeef;
  request.k = 4;
  request.min_join_size = 16;
  const std::string payload = rpc::EncodeSearchRequest(request);
  EXPECT_EQ(payload.size(), 24u);
  auto decoded = rpc::DecodeSearchRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sketch_digest, 0xfeedbeefu);
  EXPECT_EQ(decoded->k, 4u);
  EXPECT_EQ(decoded->min_join_size, 16u);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(rpc::DecodeSearchRequest(payload.substr(0, len)).ok())
        << len;
  }
  EXPECT_FALSE(rpc::DecodeSearchRequest(payload + "x").ok());
}

TEST(RpcMessageTest, SearchResponseFrameRoundTrips) {
  rpc::SearchResponse response;
  response.result.num_candidates = 3;
  SearchHit hit;
  hit.global_index = 9;
  hit.candidate = ColumnPairRef{"t", "k", "v"};
  hit.estimate.mi = 2.5;
  response.result.hits.push_back(hit);
  const std::string encoded = EncodeFrame(
      FrameType::kSearchResponse, 21, rpc::EncodeSearchResponse(response));
  auto frame = DecodeFrame(encoded);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, FrameType::kSearchResponse);
  EXPECT_EQ(frame->request_id, 21u);
  auto decoded = rpc::DecodeSearchResponse(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->result.num_candidates, 3u);
  ASSERT_EQ(decoded->result.hits.size(), 1u);
  EXPECT_EQ(decoded->result.hits[0].global_index, 9u);
  EXPECT_EQ(decoded->result.hits[0].candidate.ToString(),
            hit.candidate.ToString());
  EXPECT_EQ(decoded->result.hits[0].estimate.mi, 2.5);
}

}  // namespace
}  // namespace joinmi
