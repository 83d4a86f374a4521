// Tests for sketch binary serialization: round trips for every method and
// value type, estimation equivalence after a round trip, corruption
// handling (truncation, bad magic/tags, trailing bytes), and the refusal
// of old row-format sketches in every container that embeds one.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/delta_segment.h"
#include "src/ingest/delta_shard_client.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/sketch/builder.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
#include "src/storage/paged_shard_file.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

Sketch MakeSampleSketch(SketchMethod method, DataType value_type) {
  Rng rng(8);
  std::vector<std::string> keys;
  std::vector<Value> values;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("k" + std::to_string(rng.NextBounded(120)));
    switch (value_type) {
      case DataType::kInt64:
        values.emplace_back(static_cast<int64_t>(rng.NextBounded(40)));
        break;
      case DataType::kDouble:
        values.emplace_back(rng.Gaussian());
        break;
      default:
        values.emplace_back("v" + std::to_string(rng.NextBounded(9)));
        break;
    }
  }
  auto key_col = Column::MakeString(std::move(keys));
  auto value_col = *Column::FromValues(values);
  SketchOptions options;
  options.capacity = 64;
  auto builder = MakeSketchBuilder(method, options);
  return *builder->SketchTrain(*key_col, *value_col);
}

void ExpectSketchesEqual(const Sketch& a, const Sketch& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.hash_seed, b.hash_seed);
  EXPECT_EQ(a.source_rows, b.source_rows);
  EXPECT_EQ(a.source_distinct_keys, b.source_distinct_keys);
  EXPECT_EQ(a.key_hashes, b.key_hashes);
  EXPECT_EQ(a.ranks, b.ranks);
  EXPECT_EQ(a.value_words, b.value_words);
  EXPECT_EQ(a.mixed_types, b.mixed_types);
  EXPECT_EQ(a.value_types.all_numeric, b.value_types.all_numeric);
  EXPECT_EQ(a.value_types.any_numeric, b.value_types.any_numeric);
  EXPECT_EQ(a.value_types.has_null, b.value_types.has_null);
}

class SerializeRoundTripTest
    : public testing::TestWithParam<std::tuple<SketchMethod, DataType>> {};

TEST_P(SerializeRoundTripTest, RoundTripsExactly) {
  const auto [method, type] = GetParam();
  const Sketch original = MakeSampleSketch(method, type);
  const std::string data = SerializeSketch(original);
  auto restored = DeserializeSketch(data);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectSketchesEqual(original, *restored);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndTypes, SerializeRoundTripTest,
    testing::Combine(testing::Values(SketchMethod::kTupsk,
                                     SketchMethod::kLv2sk,
                                     SketchMethod::kPrisk,
                                     SketchMethod::kIndsk,
                                     SketchMethod::kCsk),
                     testing::Values(DataType::kInt64, DataType::kDouble,
                                     DataType::kString)),
    [](const testing::TestParamInfo<std::tuple<SketchMethod, DataType>>&
           info) {
      return std::string(SketchMethodToString(std::get<0>(info.param))) +
             "_" + DataTypeToString(std::get<1>(info.param));
    });

// Empty and single-key sketches for every named variant: the boundary
// conditions a persisted discovery index actually hits (all-null candidate
// columns serialize empty; capacity-1 sketches hold one key).
class SerializeEdgeCaseTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(SerializeEdgeCaseTest, EmptySketchRoundTrips) {
  for (SketchSide side : {SketchSide::kTrain, SketchSide::kCandidate}) {
    Sketch sketch;
    sketch.method = GetParam();
    sketch.side = side;
    sketch.capacity = 32;
    auto restored = DeserializeSketch(SerializeSketch(sketch));
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectSketchesEqual(sketch, *restored);
    EXPECT_EQ(restored->size(), 0u);
  }
}

TEST_P(SerializeEdgeCaseTest, BuiltEmptySketchRoundTrips) {
  // An all-null column yields a sketch with zero entries through the real
  // builder path; it must survive persistence with provenance intact.
  std::vector<Value> nulls(8, Value::Null());
  auto key_col = *Column::FromValues(nulls);
  auto value_col = *Column::FromValues(nulls);
  SketchOptions options;
  options.capacity = 16;
  auto builder = MakeSketchBuilder(GetParam(), options);
  auto sketch = builder->SketchTrain(*key_col, *value_col);
  ASSERT_TRUE(sketch.ok()) << sketch.status();
  EXPECT_EQ(sketch->size(), 0u);
  auto restored = DeserializeSketch(SerializeSketch(*sketch));
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectSketchesEqual(*sketch, *restored);
}

TEST_P(SerializeEdgeCaseTest, SingleKeySketchRoundTrips) {
  auto key_col = Column::MakeString({"only-key"});
  auto value_col = Column::MakeString({"only-value"});
  SketchOptions options;
  options.capacity = 4;
  auto builder = MakeSketchBuilder(GetParam(), options);
  for (bool candidate_side : {false, true}) {
    Result<Sketch> sketch =
        candidate_side
            ? builder->SketchCandidate(*key_col, *value_col, AggKind::kFirst)
            : builder->SketchTrain(*key_col, *value_col);
    ASSERT_TRUE(sketch.ok()) << sketch.status();
    ASSERT_EQ(sketch->size(), 1u);
    auto restored = DeserializeSketch(SerializeSketch(*sketch));
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectSketchesEqual(*sketch, *restored);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SerializeEdgeCaseTest,
    testing::Values(SketchMethod::kCsk, SketchMethod::kIndsk,
                    SketchMethod::kLv2sk, SketchMethod::kPrisk,
                    SketchMethod::kTupsk),
    [](const testing::TestParamInfo<SketchMethod>& info) {
      return SketchMethodToString(info.param);
    });

TEST(SerializeTest, HashSeedRoundTrips) {
  // The v2 format records the builder's hash seed, so a persisted sketch
  // carries the provenance JoinSketches needs to enforce seed agreement.
  auto key_col = Column::MakeString({"a", "b", "c"});
  auto value_col = Column::MakeInt64({1, 2, 3});
  SketchOptions options;
  options.capacity = 8;
  options.hash_seed = 9;
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  auto sketch = *builder->SketchTrain(*key_col, *value_col);
  EXPECT_EQ(sketch.hash_seed, 9u);
  auto restored = DeserializeSketch(SerializeSketch(sketch));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->hash_seed, 9u);
  ExpectSketchesEqual(sketch, *restored);
}

// One entry of a hand-encoded legacy sketch, with an int64 value.
struct LegacyEntry {
  uint64_t key_hash;
  double rank;
  int64_t value;
};

// Hand-encodes the legacy row layout, byte for byte what the writers of
// `version` produced for int64 values: v1 had no hash_seed field, v2
// inserted it after the side byte; both stored each entry as key hash,
// rank, value tag and value.
std::string EncodeLegacy(uint32_t version, const Sketch& header,
                         const std::vector<LegacyEntry>& entries) {
  std::string out = "JMSK";
  wire::AppendPod<uint32_t>(&out, version);
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(header.method));
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(header.side));
  if (version >= 2) wire::AppendPod<uint32_t>(&out, header.hash_seed);
  wire::AppendPod<uint64_t>(&out, header.capacity);
  wire::AppendPod<uint64_t>(&out, header.source_rows);
  wire::AppendPod<uint64_t>(&out, header.source_distinct_keys);
  wire::AppendPod<uint64_t>(&out, entries.size());
  for (const LegacyEntry& entry : entries) {
    wire::AppendPod<uint64_t>(&out, entry.key_hash);
    wire::AppendPod<double>(&out, entry.rank);
    wire::AppendPod<uint8_t>(&out, 1);  // int64
    wire::AppendPod<int64_t>(&out, entry.value);
  }
  return out;
}

Sketch LegacyHeader() {
  Sketch sketch;
  sketch.method = SketchMethod::kTupsk;
  sketch.side = SketchSide::kCandidate;
  sketch.capacity = 4;
  sketch.source_rows = 2;
  sketch.source_distinct_keys = 2;
  return sketch;
}

const std::vector<LegacyEntry> kLegacyEntries = {{3, 0.25, 10}, {8, 0.5, 20}};

TEST(SerializeTest, RejectsSeedlessV1Buffers) {
  // v1 predates seed tracking: loading it would hide the seed the sketch
  // was built under from every coordination check, so it is refused.
  auto restored =
      DeserializeSketch(EncodeLegacy(1, LegacyHeader(), kLegacyEntries));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().message().rfind("unsupported sketch version 1;",
                                              0),
            0u)
      << restored.status();
}

// The status every reader of an embedded v2 sketch must return: its
// version, and the rebuild that replaces it.
void ExpectRefusesV2(const Status& status) {
  EXPECT_TRUE(status.IsIOError()) << status;
  EXPECT_NE(status.message().find("unsupported sketch version 2"),
            std::string::npos)
      << status;
  EXPECT_NE(status.message().find("build_shards"), std::string::npos)
      << status;
}

TEST(SerializeTest, RejectsV2RowBuffers) {
  auto restored =
      DeserializeSketch(EncodeLegacy(2, LegacyHeader(), kLegacyEntries));
  ASSERT_FALSE(restored.ok());
  ExpectRefusesV2(restored.status());
}

// ------------------------------------- v2 sketches inside every container

// An index config and one valid candidate record beside one whose sketch
// is in the v2 row format.
JoinMIConfig RejectionConfig() {
  JoinMIConfig config;
  config.min_join_size = 1;
  config.estimator = MIEstimatorKind::kMLE;
  return config;
}

std::string ValidRecord() {
  Sketch sketch = LegacyHeader();
  for (const LegacyEntry& entry : kLegacyEntries) {
    sketch.Append(entry.key_hash, entry.rank, Value(entry.value));
  }
  return EncodeCandidateRecord({"valid", "K", "V"}, sketch);
}

std::string V2Record() {
  std::string out;
  wire::AppendLengthPrefixed(&out, "old");
  wire::AppendLengthPrefixed(&out, "K");
  wire::AppendLengthPrefixed(&out, "V");
  wire::AppendLengthPrefixed(&out,
                             EncodeLegacy(2, LegacyHeader(), kLegacyEntries));
  return out;
}

std::string RejectionDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_v2_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(V2RejectionTest, JmixIndexIsRefusedWhole) {
  const std::string data =
      EncodeIndexRecords(RejectionConfig(), {ValidRecord(), V2Record()});
  auto index = DeserializeIndex(data);
  ASSERT_FALSE(index.ok());
  ExpectRefusesV2(index.status());
  EXPECT_NE(index.status().message().find("candidate 1 of 2"),
            std::string::npos)
      << index.status();
  ExpectRefusesV2(VerifyIndexRecords(data));
}

TEST(V2RejectionTest, JmpsRecordIsRefusedAndNeverScored) {
  const std::string dir = RejectionDir("jmps");
  const std::string path = dir + "/shard.jmps";
  ShardBuildOptions layout;
  layout.format = ShardFileFormat::kPaged;
  layout.page_size = 256;
  auto bytes =
      EncodeShardFile(RejectionConfig(), {ValidRecord(), V2Record()}, layout);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_TRUE(wire::WriteFileBytes(*bytes, path).ok());
  ExpectRefusesV2(VerifyShardFile(path, ShardFileFormat::kPaged));

  // Served, the record decodes only when probed, and its probe fails: the
  // candidate counts as an error, never an estimate.
  auto client = PagedShardClient::Open(path, {0, 1}, {});
  ASSERT_TRUE(client.ok()) << client.status();
  Sketch train = LegacyHeader();
  train.side = SketchSide::kTrain;
  for (const LegacyEntry& entry : kLegacyEntries) {
    train.Append(entry.key_hash, entry.rank, Value(entry.value));
  }
  auto query = JoinMIQuery::FromTrainSketch(train, RejectionConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = (*client)->Search(*query, 10, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_errors, 1u);
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].global_index, 0u);

  // A JMPS v1 file — every one holds v2 sketches — is refused at open.
  std::string v1 = *bytes;
  const uint32_t old_version = 1;
  std::memcpy(&v1[4], &old_version, sizeof(old_version));
  const size_t checksum_at = storage::kPagedShardHeaderSize - 8;
  const uint64_t checksum = wire::Checksum64(v1.substr(0, checksum_at));
  std::memcpy(&v1[checksum_at], &checksum, sizeof(checksum));
  ASSERT_TRUE(wire::WriteFileBytes(v1, path).ok());
  auto old = PagedShardClient::Open(path, {0, 1}, {});
  ASSERT_FALSE(old.ok());
  EXPECT_NE(old.status().message().find("format version 1"),
            std::string::npos)
      << old.status();
  EXPECT_NE(old.status().message().find("build_shards"), std::string::npos)
      << old.status();
  std::filesystem::remove_all(dir);
}

TEST(V2RejectionTest, JmdsDeltaPayloadFailsTheOverlayLoad) {
  const std::string dir = RejectionDir("jmds");
  SketchIndex base_index(RejectionConfig());
  auto valid = DecodeCandidateRecord(ValidRecord());
  ASSERT_TRUE(valid.ok()) << valid.status();
  ASSERT_TRUE(base_index.AddSketch(valid->ref, valid->sketch).ok());
  auto base = LocalShardClient::Create(std::move(base_index), {0});
  ASSERT_TRUE(base.ok()) << base.status();

  auto writer = ingest::DeltaSegmentWriter::Open(dir + "/shard.jmds",
                                                 RejectionConfig(), 0);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append({ingest::DeltaRecord{1, V2Record()}}).ok());
  ShardManifestEntry entry;
  entry.candidate_count = 2;
  entry.global_indices = {0, 1};
  entry.delta_path = "shard.jmds";
  entry.delta_records = 1;
  entry.delta_bytes = (*writer)->committed_bytes();
  entry.delta_checksum = (*writer)->committed_checksum();
  auto overlay = ingest::LoadDeltaOverlay(std::move(*base), entry, dir);
  ASSERT_FALSE(overlay.ok());
  ExpectRefusesV2(overlay.status());
  std::filesystem::remove_all(dir);
}

TEST(V2RejectionTest, JmrpSearchCarryingAV2SketchIsRefused) {
  const std::string dir = RejectionDir("jmrp");
  SketchIndex index(RejectionConfig());
  auto valid = DecodeCandidateRecord(ValidRecord());
  ASSERT_TRUE(valid.ok()) << valid.status();
  ASSERT_TRUE(index.AddSketch(valid->ref, valid->sketch).ok());
  auto manifest =
      BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  auto server = ShardServer::Create(*manifest, 0, {});
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Start().ok());

  auto socket = net::Socket::Connect("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->SetTimeouts(5000, 5000).ok());
  Sketch train = LegacyHeader();
  train.side = SketchSide::kTrain;
  rpc::SearchRequest search;
  search.k = 10;
  search.min_join_size = 1;
  search.train_sketch = EncodeLegacy(2, train, kLegacyEntries);
  ASSERT_TRUE(net::SendFrame(&*socket, net::FrameType::kSearchRequest, 1,
                             rpc::EncodeSearchRequest(search))
                  .ok());
  auto reply = net::RecvFrame(&*socket);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, net::FrameType::kSearchResponse);
  auto searched = rpc::DecodeSearchResponse(reply->payload);
  ASSERT_TRUE(searched.ok()) << searched.status();
  ExpectRefusesV2(searched->status);
  EXPECT_TRUE(searched->result.hits.empty());
  (*server)->Stop();
  std::filesystem::remove_all(dir);
}

TEST(SerializeTest, MismatchedSeedSketchesRefuseToJoin) {
  // The hole the format bump closes: a persisted candidate probed by a
  // query sketched under a different seed must fail, not estimate.
  auto key_col = Column::MakeString({"a", "b", "c", "d"});
  auto value_col = Column::MakeInt64({1, 2, 3, 4});
  SketchOptions options;
  options.capacity = 8;
  options.hash_seed = 1;
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  auto cand = *builder->SketchCandidate(*key_col, *value_col, AggKind::kFirst);
  auto restored_cand = *DeserializeSketch(SerializeSketch(cand));

  SketchOptions query_options = options;
  query_options.hash_seed = 2;
  auto query_builder = MakeSketchBuilder(SketchMethod::kTupsk, query_options);
  auto train = *query_builder->SketchTrain(*key_col, *value_col);
  auto joined = JoinSketches(train, restored_cand);
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsInvalidArgument());
  EXPECT_FALSE(
      EstimateSketchMI(train, restored_cand, MIEstimatorKind::kMLE).ok());
}

TEST(SerializeTest, NullValueRoundTrips) {
  Sketch sketch;
  sketch.capacity = 1;
  sketch.Append(7, 0.5, Value::Null());
  auto restored = DeserializeSketch(SerializeSketch(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->ValueType(0), DataType::kNull);
  EXPECT_EQ(restored->ValueHash(0), Value::Null().Hash());
}

TEST(SerializeTest, EstimationSurvivesRoundTrip) {
  // Serialize both sides, deserialize, and verify the MI estimate is
  // bit-identical to the in-memory path.
  Rng rng(21);
  std::vector<std::string> keys, cand_keys;
  std::vector<int64_t> targets, cand_values;
  for (int i = 0; i < 800; ++i) {
    const int k = static_cast<int>(rng.NextBounded(200));
    keys.push_back("k" + std::to_string(k));
    targets.push_back(k % 5);
  }
  for (int k = 0; k < 200; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(k % 5);
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeInt64(targets)}});
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});
  SketchOptions options;
  options.capacity = 128;
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto direct = *EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE);
  auto restored_train = *DeserializeSketch(SerializeSketch(s_train));
  auto restored_cand = *DeserializeSketch(SerializeSketch(s_cand));
  auto roundtripped = *EstimateSketchMI(restored_train, restored_cand,
                                        MIEstimatorKind::kMLE);
  EXPECT_EQ(direct.mi, roundtripped.mi);
  EXPECT_EQ(direct.join_size, roundtripped.join_size);
}

TEST(SerializeTest, FileRoundTrip) {
  const Sketch original =
      MakeSampleSketch(SketchMethod::kTupsk, DataType::kString);
  const std::string path = testing::TempDir() + "/joinmi_sketch_test.bin";
  ASSERT_TRUE(WriteSketchFile(original, path).ok());
  auto restored = ReadSketchFile(path);
  ASSERT_TRUE(restored.ok());
  ExpectSketchesEqual(original, *restored);
  EXPECT_FALSE(ReadSketchFile("/no/such/dir/sketch.bin").ok());
}

TEST(SerializeTest, RejectsCorruptedInputs) {
  const Sketch original =
      MakeSampleSketch(SketchMethod::kTupsk, DataType::kString);
  const std::string data = SerializeSketch(original);

  // Bad magic.
  std::string bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeSketch(bad_magic).ok());

  // Unsupported version.
  std::string bad_version = data;
  bad_version[4] = 99;
  EXPECT_FALSE(DeserializeSketch(bad_version).ok());

  // Truncations at every prefix length must fail, never crash.
  for (size_t len : {0u, 3u, 8u, 12u, 30u}) {
    EXPECT_FALSE(DeserializeSketch(data.substr(0, len)).ok()) << len;
  }
  EXPECT_FALSE(DeserializeSketch(data.substr(0, data.size() - 1)).ok());

  // Trailing garbage.
  EXPECT_FALSE(DeserializeSketch(data + "x").ok());

  // Corrupted entry count (enormous) must not allocate wildly.
  std::string bad_count = data;
  // entry count lives after
  // magic(4)+version(4)+method(1)+side(1)+hash_seed(4)+3*u64.
  const size_t count_offset = 4 + 4 + 1 + 1 + 4 + 24;
  for (int b = 0; b < 8; ++b) {
    bad_count[count_offset + static_cast<size_t>(b)] = '\xFF';
  }
  EXPECT_FALSE(DeserializeSketch(bad_count).ok());
}

TEST(SerializeTest, EntryCountThatWrapsTheSizeCheckIsRejected) {
  // 2^64/24 + 1 entries of 24 bytes each is 8 bytes mod 2^64: a check
  // that multiplies would pass it and hand resize() an impossible count.
  // The count must be refused as an IOError, not abort the process.
  Sketch small;
  small.side = SketchSide::kCandidate;
  for (uint64_t key = 1; key <= 8; ++key) {
    small.Append(key, 0.5, Value(static_cast<int64_t>(key)));
  }
  std::string data = SerializeSketch(small);
  const size_t count_offset = 4 + 4 + 1 + 1 + 4 + 24;
  const uint64_t wrapping_count =
      std::numeric_limits<uint64_t>::max() / 24 + 1;
  ASSERT_EQ(wrapping_count * 24, 8u);
  std::memcpy(&data[count_offset], &wrapping_count, sizeof(wrapping_count));
  auto parsed = DeserializeSketch(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIOError()) << parsed.status();
}

// ------------------------------------------------------ wire::Checksum64

TEST(Checksum64Test, MatchesFnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors (offset basis 14695981039346656037,
  // prime 1099511628211). The empty input must return the offset basis —
  // shard manifests rely on "empty file" having a well-defined checksum.
  EXPECT_EQ(wire::Checksum64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(wire::Checksum64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(wire::Checksum64("b"), 0xaf63df4c8601f1a5ULL);
  EXPECT_EQ(wire::Checksum64("abc"), 0xe71fa2190541574bULL);
  EXPECT_EQ(wire::Checksum64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Checksum64Test, SingleByteAvalanche) {
  // Adjacent single-byte inputs must disagree in many bits — a checksum
  // that clusters on near-identical inputs would miss the very bit flips
  // the shard loader exists to catch.
  const uint64_t diff = wire::Checksum64("a") ^ wire::Checksum64("b");
  int bits = 0;
  for (uint64_t d = diff; d != 0; d >>= 1) bits += static_cast<int>(d & 1);
  EXPECT_GE(bits, 8);

  // A one-bit flip anywhere in a larger buffer changes the checksum.
  std::string buffer(256, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(i * 7 + 1);
  }
  const uint64_t baseline = wire::Checksum64(buffer);
  for (size_t i = 0; i < buffer.size(); i += 41) {
    std::string flipped = buffer;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    EXPECT_NE(wire::Checksum64(flipped), baseline) << i;
  }
}

TEST(Checksum64Test, ChunkedChecksumEqualsOneShot) {
  // "foobar" in three chunks, each continuing from the last one's state,
  // gives the one-shot known answer; zero bytes give the offset basis.
  uint64_t state = wire::Checksum64("fo", 2);
  state = wire::Checksum64("ob", 2, state);
  state = wire::Checksum64("ar", 2, state);
  EXPECT_EQ(state, 0x85944171f73967e8ULL);
  EXPECT_EQ(wire::Checksum64("", 0), wire::kChecksum64Basis);
  // Every split of a 300-byte buffer matches the one-shot checksum.
  std::string buffer;
  for (int i = 0; i < 300; ++i) buffer.push_back(static_cast<char>(i * 37));
  const uint64_t one_shot = wire::Checksum64(buffer);
  for (size_t split = 0; split <= buffer.size(); ++split) {
    EXPECT_EQ(wire::Checksum64(buffer.data() + split, buffer.size() - split,
                               wire::Checksum64(buffer.data(), split)),
              one_shot)
        << split;
  }
}

TEST(Checksum64Test, DependsOnByteOrder) {
  EXPECT_NE(wire::Checksum64("ab"), wire::Checksum64("ba"));
  EXPECT_NE(wire::Checksum64(std::string("\x00\x01", 2)),
            wire::Checksum64(std::string("\x01\x00", 2)));
}

}  // namespace
}  // namespace joinmi
