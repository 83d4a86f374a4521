// Golden answers that pin what an estimator sees, independent of how a
// sketch is stored: the MI every serving path returns for every sketch
// method over string, int64, double and mixed/null values, and a
// selection digest over each built sketch's (key hash, rank, value word)
// entries. A change of sketch layout or format must leave both unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/serialize.h"
#include "src/table/table.h"
#include "tests/sketch_rows.h"

namespace joinmi {
namespace {

constexpr uint32_t kSeed = 11;
constexpr size_t kKeys = 300;
constexpr SketchMethod kMethods[] = {SketchMethod::kTupsk,
                                     SketchMethod::kLv2sk,
                                     SketchMethod::kPrisk,
                                     SketchMethod::kIndsk, SketchMethod::kCsk};

std::string Key(size_t i) { return "k" + std::to_string(i); }

JoinMIConfig Config(SketchMethod method) {
  JoinMIConfig config;
  config.sketch_method = method;
  config.sketch_capacity = 96;
  config.hash_seed = kSeed;
  config.aggregation = AggKind::kMode;
  config.min_join_size = 8;
  return config;
}

// 900 rows over 300 keys, with a numeric and a string target that both
// depend on the key.
std::shared_ptr<Table> MakeBase() {
  Rng rng(515);
  std::vector<std::string> keys;
  std::vector<double> numbers;
  std::vector<std::string> words;
  for (size_t row = 0; row < 900; ++row) {
    const size_t k = rng.NextBounded(kKeys);
    keys.push_back(Key(k));
    numbers.push_back(static_cast<double>(k % 9) * 0.5 +
                      static_cast<double>(rng.NextBounded(4)) * 0.125);
    words.push_back("c" + std::to_string(k % 5 + rng.NextBounded(2)));
  }
  return *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                              {"Ynum", Column::MakeDouble(std::move(numbers))},
                              {"Ystr", Column::MakeString(std::move(words))}});
}

// Candidates with string, int64 and double values over 240 of the keys,
// each key on two or three rows (aggregated by mode).
TableRepository MakeRepository() {
  Rng rng(616);
  std::vector<std::string> keys;
  std::vector<std::string> words;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  for (size_t row = 0; row < 600; ++row) {
    const size_t k = rng.NextBounded(240);
    keys.push_back(Key(k));
    words.push_back("w" + std::to_string((k + rng.NextBounded(3)) % 5));
    ints.push_back(static_cast<int64_t>(k % 7) * 3 -
                   static_cast<int64_t>(rng.NextBounded(2)));
    doubles.push_back(static_cast<double>(k % 9) / 2.0 +
                      static_cast<double>(rng.NextBounded(8)) / 16.0);
  }
  TableRepository repository;
  repository
      .AddTable("words", *Table::FromColumns(
                             {{"K", Column::MakeString(keys)},
                              {"V", Column::MakeString(std::move(words))}}))
      .Abort();
  repository
      .AddTable("ints", *Table::FromColumns(
                            {{"K", Column::MakeString(keys)},
                             {"V", Column::MakeInt64(std::move(ints))}}))
      .Abort();
  repository
      .AddTable("doubles", *Table::FromColumns(
                               {{"K", Column::MakeString(keys)},
                                {"V", Column::MakeDouble(std::move(doubles))}}))
      .Abort();
  return repository;
}

struct HandEntry {
  uint64_t key_hash;
  double rank;
  Value value;
};

Sketch HandBuilt(const JoinMIConfig& config, SketchSide side,
                 std::vector<HandEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const HandEntry& a, const HandEntry& b) {
              if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
              return a.rank < b.rank;
            });
  Sketch sketch;
  sketch.method = config.sketch_method;
  sketch.side = side;
  sketch.capacity = config.sketch_capacity;
  sketch.hash_seed = config.hash_seed;
  for (const HandEntry& entry : entries) {
    AppendSketchEntry(&sketch, entry.key_hash, entry.rank, entry.value);
  }
  sketch.source_rows = entries.size();
  sketch.source_distinct_keys = entries.size();
  return sketch;
}

// A candidate whose values mix int64s and strings, with a null on a key
// no query holds.
Sketch MixedCandidate(const JoinMIConfig& config) {
  std::vector<HandEntry> entries;
  for (size_t i = 0; i < 200; ++i) {
    const uint64_t h = HashKey(Value(Key(i)), kSeed);
    entries.push_back(HandEntry{
        h, KeyUnitHash(h),
        i % 3 == 0 ? Value("m" + std::to_string(i % 4))
                   : Value(static_cast<int64_t>(i % 5))});
  }
  const uint64_t lone = HashKey(Value("no such key"), kSeed);
  entries.push_back(HandEntry{lone, KeyUnitHash(lone), Value::Null()});
  return HandBuilt(config, SketchSide::kCandidate, std::move(entries));
}

// A train sketch whose values mix doubles and strings over repeated keys,
// with a null on a key no candidate holds.
Sketch MixedTrain(const JoinMIConfig& config) {
  std::vector<HandEntry> entries;
  for (size_t i = 0; i < 250; ++i) {
    const uint64_t h = HashKey(Value(Key(i)), kSeed);
    for (size_t j = 1; j <= 1 + i % 3; ++j) {
      entries.push_back(HandEntry{
          h, TupleUnitHash(h, j),
          i % 4 == 0 ? Value("t" + std::to_string(i % 3))
                     : Value(static_cast<double>(i % 6) * 0.75 +
                             static_cast<double>(j) * 0.25)});
    }
  }
  const uint64_t lone = HashKey(Value("lone train key"), kSeed);
  entries.push_back(HandEntry{lone, TupleUnitHash(lone, 1), Value::Null()});
  return HandBuilt(config, SketchSide::kTrain, std::move(entries));
}

struct GoldenHit {
  SketchMethod method;
  const char* query;
  uint64_t global_index;
  double mi;
  size_t sample_size;
};

struct GoldenCounts {
  SketchMethod method;
  const char* query;
  size_t evaluated;
  size_t skipped;
  size_t errors;
};

// Candidates by global index: the (K, V) pairs of doubles, ints and
// words, words' (V, K) pair (IndexRepository's order), then the
// hand-built mixed candidate.
const GoldenHit kGoldenHits[] = {
    {SketchMethod::kTupsk, "Ynum", 0, 0x1.f6a67f98c9effp+0, 51},
    {SketchMethod::kTupsk, "Ynum", 1, 0x1.362fc6a7612aep-2, 51},
    {SketchMethod::kTupsk, "Ynum", 4, 0x1.26db6e5adec4p-2, 63},
    {SketchMethod::kTupsk, "Ynum", 2, 0x1.ac9b66e77efcp-3, 51},
    {SketchMethod::kTupsk, "Ystr", 4, 0x1.ac8c83fd1e294p-1, 63},
    {SketchMethod::kTupsk, "Ystr", 2, 0x1.cb7024efde3bp-2, 51},
    {SketchMethod::kTupsk, "Ystr", 1, 0x1.3c281e3a8a49p-3, 51},
    {SketchMethod::kTupsk, "Ystr", 0, 0x1.5a5b3afcc1f4p-5, 51},
    {SketchMethod::kTupsk, "mixed", 0, 0x1.02f314a9a0d98p+0, 193},
    {SketchMethod::kTupsk, "mixed", 4, 0x1.43dab3135ab28p-1, 399},
    {SketchMethod::kTupsk, "mixed", 1, 0x1.36fb01e81b4a4p-1, 193},
    {SketchMethod::kTupsk, "mixed", 2, 0x1.753e4f05d5f8p-3, 193},
    {SketchMethod::kLv2sk, "Ynum", 0, 0x1.21e9a5a93c675p+1, 72},
    {SketchMethod::kLv2sk, "Ynum", 2, 0x1.d59d7bab45f8p-3, 72},
    {SketchMethod::kLv2sk, "Ynum", 4, 0x1.92abf34465c2p-3, 62},
    {SketchMethod::kLv2sk, "Ynum", 1, 0x0p+0, 72},
    {SketchMethod::kLv2sk, "Ystr", 4, 0x1.ae0452c3316e8p-1, 62},
    {SketchMethod::kLv2sk, "Ystr", 2, 0x1.9cfb2f68760cp-2, 72},
    {SketchMethod::kLv2sk, "Ystr", 1, 0x1.3f564231ee3cp-3, 72},
    {SketchMethod::kLv2sk, "Ystr", 0, 0x1.25d6e28ebc64p-5, 72},
    {SketchMethod::kLv2sk, "mixed", 0, 0x1.0ab5ffbae88cap+0, 196},
    {SketchMethod::kLv2sk, "mixed", 4, 0x1.43dab3135ab28p-1, 399},
    {SketchMethod::kLv2sk, "mixed", 1, 0x1.7a326862ee1ep-2, 196},
    {SketchMethod::kLv2sk, "mixed", 2, 0x1.901411e2626ep-3, 196},
    {SketchMethod::kPrisk, "Ynum", 0, 0x1.12268b2582b83p+1, 66},
    {SketchMethod::kPrisk, "Ynum", 4, 0x1.a3c77664578ap-3, 62},
    {SketchMethod::kPrisk, "Ynum", 2, 0x1.117e535ced01p-3, 66},
    {SketchMethod::kPrisk, "Ynum", 1, 0x1.6c4d79468c994p-5, 66},
    {SketchMethod::kPrisk, "Ystr", 4, 0x1.ae1b7f4eb9c18p-1, 62},
    {SketchMethod::kPrisk, "Ystr", 2, 0x1.a74bb4e56643p-2, 66},
    {SketchMethod::kPrisk, "Ystr", 1, 0x1.046e69762a8p-3, 66},
    {SketchMethod::kPrisk, "Ystr", 0, 0x1.1c07b002d938p-5, 66},
    {SketchMethod::kPrisk, "mixed", 0, 0x1.0ab5ffbae88cap+0, 196},
    {SketchMethod::kPrisk, "mixed", 4, 0x1.43dab3135ab28p-1, 399},
    {SketchMethod::kPrisk, "mixed", 1, 0x1.7a326862ee1ep-2, 196},
    {SketchMethod::kPrisk, "mixed", 2, 0x1.901411e2626ep-3, 196},
    {SketchMethod::kIndsk, "Ynum", 0, 0x1.a363f04b174a8p+0, 29},
    {SketchMethod::kIndsk, "Ynum", 4, 0x1.e8f67576eb188p-2, 66},
    {SketchMethod::kIndsk, "Ynum", 2, 0x1.f3fcc4c7b404p-4, 29},
    {SketchMethod::kIndsk, "Ynum", 1, 0x0p+0, 29},
    {SketchMethod::kIndsk, "Ystr", 4, 0x1.b09c26aa2810cp-1, 66},
    {SketchMethod::kIndsk, "Ystr", 2, 0x1.1c988c9c714p-1, 29},
    {SketchMethod::kIndsk, "Ystr", 0, 0x1.194f7b811aep-8, 29},
    {SketchMethod::kIndsk, "Ystr", 1, 0x0p+0, 29},
    {SketchMethod::kIndsk, "mixed", 0, 0x1.d1e53c4ad1dd8p-1, 197},
    {SketchMethod::kIndsk, "mixed", 4, 0x1.43dab3135ab28p-1, 399},
    {SketchMethod::kIndsk, "mixed", 1, 0x1.95e8832ee7128p-2, 197},
    {SketchMethod::kIndsk, "mixed", 2, 0x1.b888e2253224p-3, 197},
    {SketchMethod::kCsk, "Ynum", 0, 0x1.22da9d6692d54p+1, 72},
    {SketchMethod::kCsk, "Ynum", 2, 0x1.039d54a0fe2b8p-2, 72},
    {SketchMethod::kCsk, "Ynum", 4, 0x1.9ff756e290ddp-3, 62},
    {SketchMethod::kCsk, "Ynum", 1, 0x1.f6f3334e5df72p-6, 72},
    {SketchMethod::kCsk, "Ystr", 4, 0x1.b5099da187c6p-1, 62},
    {SketchMethod::kCsk, "Ystr", 2, 0x1.b14a3335f4dep-2, 72},
    {SketchMethod::kCsk, "Ystr", 1, 0x1.affd8daf94f2p-3, 72},
    {SketchMethod::kCsk, "Ystr", 0, 0x1.d9778f71d4ecp-4, 72},
    {SketchMethod::kCsk, "mixed", 0, 0x1.073421f0e66bcp+0, 196},
    {SketchMethod::kCsk, "mixed", 4, 0x1.43dab3135ab28p-1, 399},
    {SketchMethod::kCsk, "mixed", 1, 0x1.bfcc165d967a8p-2, 196},
    {SketchMethod::kCsk, "mixed", 2, 0x1.b1666eeb974p-4, 196},
};

const GoldenCounts kGoldenCounts[] = {
    {SketchMethod::kTupsk, "Ynum", 4, 1, 0},
    {SketchMethod::kTupsk, "Ystr", 4, 1, 0},
    {SketchMethod::kTupsk, "mixed", 4, 1, 0},
    {SketchMethod::kLv2sk, "Ynum", 4, 1, 0},
    {SketchMethod::kLv2sk, "Ystr", 4, 1, 0},
    {SketchMethod::kLv2sk, "mixed", 4, 1, 0},
    {SketchMethod::kPrisk, "Ynum", 4, 1, 0},
    {SketchMethod::kPrisk, "Ystr", 4, 1, 0},
    {SketchMethod::kPrisk, "mixed", 4, 1, 0},
    {SketchMethod::kIndsk, "Ynum", 4, 1, 0},
    {SketchMethod::kIndsk, "Ystr", 4, 1, 0},
    {SketchMethod::kIndsk, "mixed", 4, 1, 0},
    {SketchMethod::kCsk, "Ynum", 4, 1, 0},
    {SketchMethod::kCsk, "Ystr", 4, 1, 0},
    {SketchMethod::kCsk, "mixed", 4, 1, 0},
};

// The enumerator names, as the golden tables spell them.
const char* MethodName(SketchMethod method) {
  switch (method) {
    case SketchMethod::kTupsk:
      return "kTupsk";
    case SketchMethod::kLv2sk:
      return "kLv2sk";
    case SketchMethod::kPrisk:
      return "kPrisk";
    case SketchMethod::kIndsk:
      return "kIndsk";
    case SketchMethod::kCsk:
      return "kCsk";
  }
  return "unknown";
}

const char* TypeName(DataType type) {
  switch (type) {
    case DataType::kString:
      return "kString";
    case DataType::kInt64:
      return "kInt64";
    case DataType::kDouble:
      return "kDouble";
    case DataType::kNull:
      return "kNull";
  }
  return "unknown";
}

// The result as golden-table rows, for the failure message.
std::string Render(SketchMethod method, const std::string& query,
                   const TopKSearchResult& result) {
  std::string out;
  char line[256];
  for (const SearchHit& hit : result.hits) {
    std::snprintf(line, sizeof(line),
                  "    {SketchMethod::%s, \"%s\", %" PRIu64 ", %a, %zu},\n",
                  MethodName(method), query.c_str(),
                  hit.global_index, hit.estimate.mi,
                  hit.estimate.sample_size);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "    {SketchMethod::%s, \"%s\", %zu, %zu, %zu},\n",
                MethodName(method), query.c_str(),
                result.num_evaluated, result.num_skipped, result.num_errors);
  out += line;
  return out;
}

void ExpectGolden(SketchMethod method, const std::string& query,
                  const std::string& path, const TopKSearchResult& result) {
  std::vector<const GoldenHit*> want;
  for (const GoldenHit& hit : kGoldenHits) {
    if (hit.method == method && hit.query == query) want.push_back(&hit);
  }
  const GoldenCounts* counts = nullptr;
  for (const GoldenCounts& c : kGoldenCounts) {
    if (c.method == method && c.query == query) counts = &c;
  }
  const std::string where = std::string(SketchMethodToString(method)) + " " +
                            query + " via " + path + "; got\n" +
                            Render(method, query, result);
  ASSERT_NE(counts, nullptr) << where;
  EXPECT_EQ(result.num_evaluated, counts->evaluated) << where;
  EXPECT_EQ(result.num_skipped, counts->skipped) << where;
  EXPECT_EQ(result.num_errors, counts->errors) << where;
  ASSERT_EQ(result.hits.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.hits[i].global_index, want[i]->global_index) << where;
    EXPECT_EQ(result.hits[i].estimate.mi, want[i]->mi) << where;
    EXPECT_EQ(result.hits[i].estimate.sample_size, want[i]->sample_size)
        << where;
  }
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_golden_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(GoldenMITest, EveryMethodAndServingPathMatchesGoldens) {
  const std::shared_ptr<Table> base = MakeBase();
  const TableRepository repository = MakeRepository();
  for (SketchMethod method : kMethods) {
    const JoinMIConfig config = Config(method);
    const std::string tag = SketchMethodToString(method);
    SketchIndex index(config);
    auto indexed = index.IndexRepository(repository);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    ASSERT_EQ(*indexed, 4u);
    ASSERT_TRUE(
        index.AddSketch({"mixed", "K", "V"}, MixedCandidate(config)).ok());

    const std::string whole_dir = ScratchDir("whole_" + tag);
    const std::string paged_dir = ScratchDir("paged_" + tag);
    auto whole_manifest =
        BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin, whole_dir);
    ASSERT_TRUE(whole_manifest.ok()) << whole_manifest.status();
    ShardBuildOptions paged_build;
    paged_build.format = ShardFileFormat::kPaged;
    paged_build.page_size = 256;
    auto paged_manifest = BuildShards(
        index, 2, ShardPartitionPolicy::kRoundRobin, paged_dir, paged_build);
    ASSERT_TRUE(paged_manifest.ok()) << paged_manifest.status();
    auto sharded = ShardedSketchIndex::Load(*whole_manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    LocalShardLoadOptions one_page;
    one_page.pool_pages = 1;
    auto paged = ShardedSketchIndex::Load(
        *paged_manifest, ShardedSketchIndex::LocalFileFactory(one_page));
    ASSERT_TRUE(paged.ok()) << paged.status();

    std::vector<std::unique_ptr<ShardServer>> servers;
    std::vector<std::vector<ShardEndpoint>> endpoints;
    for (size_t s = 0; s < 2; ++s) {
      ShardServerOptions options;
      options.num_workers = 1;
      auto server = ShardServer::Create(*whole_manifest, s, options);
      ASSERT_TRUE(server.ok()) << server.status();
      ASSERT_TRUE((*server)->Start().ok());
      endpoints.push_back({ShardEndpoint{"127.0.0.1", (*server)->port()}});
      servers.push_back(std::move(*server));
    }
    ReplicaRouterOptions remote_options;
    remote_options.rpc.connect_timeout_ms = 500;
    remote_options.rpc.io_timeout_ms = 10000;
    auto remote = ShardedSketchIndex::Load(
        *whole_manifest,
        ReplicaShardClient::Factory(endpoints, remote_options));
    ASSERT_TRUE(remote.ok()) << remote.status();

    std::vector<std::pair<std::string, JoinMIQuery>> queries;
    for (const char* target : {"Ynum", "Ystr"}) {
      auto query = JoinMIQuery::Create(*base, "K", target, config);
      ASSERT_TRUE(query.ok()) << query.status();
      queries.emplace_back(target, std::move(*query));
    }
    auto mixed = JoinMIQuery::FromTrainSketch(MixedTrain(config), config);
    ASSERT_TRUE(mixed.ok()) << mixed.status();
    queries.emplace_back("mixed", std::move(*mixed));

    const std::pair<const char*, const Searchable*> paths[] = {
        {"unsharded", &index},
        {"sharded", &*sharded},
        {"paged", &*paged},
        {"rpc", &*remote}};
    for (const auto& [name, query] : queries) {
      for (const auto& [path, searchable] : paths) {
        auto result =
            searchable->SearchQuery(query, 10, 1, ShardQueryMode::kStrict);
        ASSERT_TRUE(result.ok()) << path << ": " << result.status();
        ExpectGolden(method, name, path, *result);
      }
      // The per-candidate probe (JoinMIQuery::Estimate) gives each
      // candidate the MI the index ranked it by.
      for (const GoldenHit& hit : kGoldenHits) {
        if (hit.method != method || hit.query != name) continue;
        auto estimate =
            query.Estimate(index.candidates()[hit.global_index].sketch());
        ASSERT_TRUE(estimate.ok()) << estimate.status();
        EXPECT_EQ(estimate->mi, hit.mi) << tag << " " << name;
        EXPECT_EQ(estimate->sample_size, hit.sample_size) << tag << " " << name;
      }
    }
    for (auto& server : servers) server->Stop();
    std::filesystem::remove_all(whole_dir);
    std::filesystem::remove_all(paged_dir);
  }
}

// Checksum64 over every entry's (key hash, rank bits, value word), little
// endian, in entry order.
uint64_t SelectionDigest(const Sketch& sketch) {
  std::string bytes;
  for (const EntryWords& entry : SketchEntryWords(sketch)) {
    wire::AppendPod<uint64_t>(&bytes, entry.key_hash);
    wire::AppendPod<uint64_t>(&bytes, entry.rank_bits);
    wire::AppendPod<uint64_t>(&bytes, entry.value_word);
  }
  return wire::Checksum64(bytes);
}

std::vector<bool> NullEvery(size_t rows, size_t period, size_t phase) {
  std::vector<bool> validity(rows, true);
  for (size_t row = phase; row < rows; row += period) validity[row] = false;
  return validity;
}

// The tables of sketch_test's SerializedSketchesMatchGoldenDigests: what
// each method selects from them, as (key hash, rank, value word) digests
// that no format change moves.
TEST(GoldenSelectionTest, EveryMethodSelectsTheGoldenEntries) {
  const size_t rows = 6000;
  Rng rng(2024);
  std::vector<std::string> keys;
  std::vector<int64_t> int_keys;
  std::vector<double> double_keys;
  std::vector<double> numbers;
  for (size_t row = 0; row < rows; ++row) {
    const uint64_t draw = rng.NextBounded(2000);
    keys.push_back("g" + std::to_string(draw));
    int_keys.push_back(static_cast<int64_t>(draw) * 7919 - 5000000);
    double_keys.push_back(static_cast<double>(draw) / 8.0 - 100.0);
    numbers.push_back(static_cast<double>(rng.NextBounded(500)) / 4.0);
  }
  const std::vector<bool> key_validity = NullEvery(rows, 10, 1);
  const std::shared_ptr<Column> key_columns[] = {
      Column::MakeString(keys, key_validity),
      Column::MakeInt64(int_keys, key_validity),
      Column::MakeDouble(double_keys, key_validity)};
  auto value_column = Column::MakeDouble(numbers, NullEvery(rows, 17, 6));
  SketchOptions options;
  options.capacity = 256;
  options.sampling_seed = 4242;
  options.hash_seed = 9;
  struct Golden {
    SketchMethod method;
    DataType key_type;
    uint64_t train;
    uint64_t candidate;
  };
  const Golden golden[] = {
      {SketchMethod::kTupsk, DataType::kString,
       0x0be4101f68b54beeULL, 0x94254b5f577f0542ULL},
      {SketchMethod::kTupsk, DataType::kInt64,
       0x406374109e562388ULL, 0x31986af518c9e1d3ULL},
      {SketchMethod::kTupsk, DataType::kDouble,
       0xa18d78a5d6eaf566ULL, 0x5138ab4f83117904ULL},
      {SketchMethod::kLv2sk, DataType::kString,
       0x626a6748449891f5ULL, 0xbb1788ac8e13678cULL},
      {SketchMethod::kLv2sk, DataType::kInt64,
       0x1debbffe97da51fbULL, 0x1b4c11f1d020ba6bULL},
      {SketchMethod::kLv2sk, DataType::kDouble,
       0x2abc21c739745cdfULL, 0xad4276e145b7ba32ULL},
      {SketchMethod::kPrisk, DataType::kString,
       0xca4213a87b859794ULL, 0xbb1788ac8e13678cULL},
      {SketchMethod::kPrisk, DataType::kInt64,
       0xd4223d30bad8b4b7ULL, 0x1b4c11f1d020ba6bULL},
      {SketchMethod::kPrisk, DataType::kDouble,
       0xac998f89b39cc635ULL, 0xad4276e145b7ba32ULL},
      {SketchMethod::kIndsk, DataType::kString,
       0x6041b14b082ddf93ULL, 0x494fc679b0596750ULL},
      {SketchMethod::kIndsk, DataType::kInt64,
       0xbfa5519e0fa014dfULL, 0x1b63c9e4a85b4632ULL},
      {SketchMethod::kIndsk, DataType::kDouble,
       0x3b22730cbadfded1ULL, 0x71eb20dd1b935ab0ULL},
      {SketchMethod::kCsk, DataType::kString,
       0x44a8024397584c91ULL, 0x44a8024397584c91ULL},
      {SketchMethod::kCsk, DataType::kInt64,
       0x89dbf5fe4a474018ULL, 0x89dbf5fe4a474018ULL},
      {SketchMethod::kCsk, DataType::kDouble,
       0xdbb7cbe4aa7a5abdULL, 0xdbb7cbe4aa7a5abdULL},
  };
  std::string got;
  for (SketchMethod method : kMethods) {
    auto builder = MakeSketchBuilder(method, options);
    for (const std::shared_ptr<Column>& key_column : key_columns) {
      auto train = builder->SketchTrain(*key_column, *value_column);
      ASSERT_TRUE(train.ok()) << train.status();
      auto candidate =
          builder->SketchCandidate(*key_column, *value_column, AggKind::kAvg);
      ASSERT_TRUE(candidate.ok()) << candidate.status();
      const uint64_t train_digest = SelectionDigest(*train);
      const uint64_t candidate_digest = SelectionDigest(*candidate);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "      {SketchMethod::%s, DataType::%s, 0x%016" PRIx64
                    "ULL, 0x%016" PRIx64 "ULL},\n",
                    MethodName(method), TypeName(key_column->type()),
                    train_digest,
                    candidate_digest);
      got += line;
      bool found = false;
      for (const Golden& g : golden) {
        if (g.method != method || g.key_type != key_column->type()) continue;
        found = true;
        EXPECT_EQ(train_digest, g.train) << line;
        EXPECT_EQ(candidate_digest, g.candidate) << line;
      }
      EXPECT_TRUE(found) << line;
    }
  }
  EXPECT_EQ(std::size(golden), 15u) << got;
}

}  // namespace
}  // namespace joinmi
