// Tests for sketch binary serialization: round trips for every method and
// value type, estimation equivalence after a round trip, and corruption
// handling (truncation, bad magic/tags, trailing bytes).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "src/common/random.h"
#include "src/sketch/builder.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
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
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key_hash, b.entries[i].key_hash);
    EXPECT_EQ(a.entries[i].rank, b.entries[i].rank);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
  }
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

// Hand-encodes the legacy v1 layout (no hash_seed field) for a sketch with
// int64 values, byte for byte what the v1 writer produced.
std::string EncodeV1(const Sketch& sketch) {
  std::string out;
  auto pod = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  out.append("JMSK");
  const uint32_t version = 1;
  pod(&version, 4);
  const uint8_t method = static_cast<uint8_t>(sketch.method);
  const uint8_t side = static_cast<uint8_t>(sketch.side);
  pod(&method, 1);
  pod(&side, 1);
  const uint64_t capacity = sketch.capacity;
  const uint64_t rows = sketch.source_rows;
  const uint64_t distinct = sketch.source_distinct_keys;
  const uint64_t count = sketch.entries.size();
  pod(&capacity, 8);
  pod(&rows, 8);
  pod(&distinct, 8);
  pod(&count, 8);
  for (const SketchEntry& entry : sketch.entries) {
    pod(&entry.key_hash, 8);
    pod(&entry.rank, 8);
    const uint8_t tag = 1;  // int64
    pod(&tag, 1);
    const int64_t v = entry.value.int64();
    pod(&v, 8);
  }
  return out;
}

TEST(SerializeTest, RejectsSeedlessV1Buffers) {
  // v1 predates seed tracking: loading it would hide the seed the sketch
  // was built under from every coordination check, so it is refused.
  Sketch sketch;
  sketch.method = SketchMethod::kTupsk;
  sketch.side = SketchSide::kCandidate;
  sketch.capacity = 4;
  sketch.source_rows = 2;
  sketch.source_distinct_keys = 2;
  sketch.entries.push_back(SketchEntry{3, 0.25, Value(int64_t{10})});
  sketch.entries.push_back(SketchEntry{8, 0.5, Value(int64_t{20})});
  auto restored = DeserializeSketch(EncodeV1(sketch));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().message(), "unsupported sketch version 1");
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
  sketch.entries.push_back(SketchEntry{7, 0.5, Value::Null()});
  auto restored = DeserializeSketch(SerializeSketch(sketch));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->entries[0].value.is_null());
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
  // 2^64/17 + 1 entries of 17 bytes each is 16 bytes mod 2^64: a check
  // that multiplies would pass it and hand reserve() an impossible count.
  // The count must be refused as an IOError, not abort the process.
  Sketch small;
  small.side = SketchSide::kCandidate;
  for (uint64_t key = 1; key <= 8; ++key) {
    small.entries.push_back(
        SketchEntry{key, 0.5, Value(static_cast<int64_t>(key))});
  }
  std::string data = SerializeSketch(small);
  const size_t count_offset = 4 + 4 + 1 + 1 + 4 + 24;
  const uint64_t wrapping_count =
      std::numeric_limits<uint64_t>::max() / 17 + 1;
  ASSERT_EQ(wrapping_count * 17, 16u);
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

TEST(Checksum64Test, DependsOnByteOrder) {
  EXPECT_NE(wire::Checksum64("ab"), wire::Checksum64("ba"));
  EXPECT_NE(wire::Checksum64(std::string("\x00\x01", 2)),
            wire::Checksum64(std::string("\x01\x00", 2)));
}

}  // namespace
}  // namespace joinmi
