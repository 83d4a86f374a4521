// Unit tests for src/sketch: KMV heap, key hashing, the five sketch
// builders (size bounds, coordination, sampling properties), and the sketch
// join — including the paper's Section IV-B pathological example.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/random.h"
#include "src/discovery/sketch_index.h"
#include "src/join/left_join.h"
#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"

namespace joinmi {
namespace {

// ----------------------------------------------------------------- KMV ----

// The KMV rule by sorting every offer: the `capacity` least by (rank, key
// hash, value hash), returned by (key hash, rank, value hash).
std::vector<SketchEntry> SortEveryOffer(std::vector<SketchEntry> offers,
                                        size_t capacity) {
  std::sort(offers.begin(), offers.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
              return a.value.Hash() < b.value.Hash();
            });
  if (offers.size() > capacity) offers.resize(capacity);
  std::sort(offers.begin(), offers.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.value.Hash() < b.value.Hash();
            });
  return offers;
}

// Offers `offers` in order to a KmvSelection over their own values,
// told (when num_offers > 0) how many offers to expect.
std::vector<SketchEntry> SelectKmv(const std::vector<SketchEntry>& offers,
                                   size_t capacity, size_t num_offers = 0) {
  KmvSelection selection(
      capacity, [&offers](size_t i) { return offers[i].value; }, num_offers);
  return selection.Select([&] {
    for (size_t i = 0; i < offers.size(); ++i) {
      selection.Offer(offers[i].rank, offers[i].key_hash, i);
    }
  });
}

std::vector<uint64_t> KeysAtRank(const std::vector<SketchEntry>& entries,
                                 double rank) {
  std::vector<uint64_t> keys;
  for (const SketchEntry& entry : entries) {
    if (entry.rank == rank) keys.push_back(entry.key_hash);
  }
  return keys;
}

TEST(KmvSelectionTest, KeepsMinimumRanks) {
  std::vector<SketchEntry> offers;
  for (double rank : {0.9, 0.1, 0.5, 0.7, 0.3, 0.2}) {
    offers.push_back(
        SketchEntry{static_cast<uint64_t>(rank * 100), rank, Value()});
  }
  const auto entries = SelectKmv(offers, 3);
  ASSERT_EQ(entries.size(), 3u);
  std::vector<double> ranks;
  for (const auto& e : entries) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(KmvSelectionTest, AnEqualRankAtTheBoundStillCompetes) {
  // The fourth offer fills the buffer (2 x capacity): the two least stay
  // and the admission bound drops to 0.5. (0.5, key 1) arrives at the
  // bound and wins its tie with (0.5, key 9) on key hash.
  const std::vector<SketchEntry> entries =
      SelectKmv({SketchEntry{2, 0.2, Value()}, SketchEntry{9, 0.5, Value()},
                 SketchEntry{3, 0.6, Value()}, SketchEntry{4, 0.7, Value()},
                 SketchEntry{1, 0.5, Value()}, SketchEntry{5, 0.9, Value()}},
                2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key_hash, 1u);
  EXPECT_EQ(entries[0].rank, 0.5);
  EXPECT_EQ(entries[1].key_hash, 2u);
}

TEST(KmvSelectionTest, RankTiesBreakByKeyHashThenValueHashInAnyOrder) {
  // Three offers at rank 0.5 compete for the last slot, in every arrival
  // order, at capacity 1 (the buffer fills mid-tie and the survivor sets
  // the bound) and 256 (it never fills): the least key hash wins, and
  // between equal key hashes the least value hash.
  const Value a(int64_t{1}), b(int64_t{2});
  const Value low = a.Hash() < b.Hash() ? a : b;
  const Value high = a.Hash() < b.Hash() ? b : a;
  struct Tie {
    std::vector<SketchEntry> competitors;
    uint64_t key;
    Value value;
  };
  const Tie ties[] = {
      {{SketchEntry{9, 0.5, low}, SketchEntry{5, 0.5, low},
        SketchEntry{1, 0.5, low}},
       1, low},
      {{SketchEntry{7, 0.5, high}, SketchEntry{7, 0.5, low},
        SketchEntry{8, 0.5, low}},
       7, low},
  };
  for (size_t capacity : {size_t{1}, size_t{256}}) {
    for (const Tie& tie : ties) {
      std::vector<SketchEntry> order = tie.competitors;
      std::sort(order.begin(), order.end(),
                [](const SketchEntry& x, const SketchEntry& y) {
                  return std::make_pair(x.key_hash, x.value.Hash()) <
                         std::make_pair(y.key_hash, y.value.Hash());
                });
      do {
        std::vector<SketchEntry> offers;
        for (size_t i = 0; i + 1 < capacity; ++i) {
          offers.push_back(SketchEntry{100 + i,
                                       0.4 * static_cast<double>(i) /
                                           static_cast<double>(capacity),
                                       Value()});
        }
        offers.insert(offers.end(), order.begin(), order.end());
        const std::vector<SketchEntry> entries = SelectKmv(offers, capacity);
        ASSERT_EQ(entries.size(), capacity);
        std::string arrival;
        for (const SketchEntry& e : order) {
          arrival += " (" + std::to_string(e.key_hash) + ", " +
                     e.value.ToString() + ")";
        }
        EXPECT_EQ(KeysAtRank(entries, 0.5), std::vector<uint64_t>{tie.key})
            << "capacity " << capacity << ", arrival" << arrival;
        for (const SketchEntry& entry : entries) {
          if (entry.rank == 0.5) {
            EXPECT_EQ(entry.value, tie.value)
                << "capacity " << capacity << ", arrival" << arrival;
          }
        }
      } while (std::next_permutation(
          order.begin(), order.end(),
          [](const SketchEntry& x, const SketchEntry& y) {
            return std::make_pair(x.key_hash, x.value.Hash()) <
                   std::make_pair(y.key_hash, y.value.Hash());
          }));
    }
  }
}

TEST(KmvSelectionTest, ZeroCapacityAndUnderfill) {
  EXPECT_TRUE(SelectKmv({SketchEntry{1, 0.1, Value()}}, 0).empty());
  EXPECT_EQ(SelectKmv({SketchEntry{1, 0.1, Value()}}, 100).size(), 1u);
}

TEST(KmvSelectionTest, KeepsWhatSortingEveryOfferKeeps) {
  Rng rng(31);
  for (size_t capacity : {1, 2, 5, 64}) {
    for (size_t rows : {0, 1, 3, 40, 700}) {
      std::vector<SketchEntry> offers;
      for (size_t row = 0; row < rows; ++row) {
        // Ties on every level: 8 ranks, 3 key hashes, 5 values, so the
        // last comparison reads the value hashes.
        offers.push_back(SketchEntry{
            rng.NextBounded(3), static_cast<double>(rng.NextBounded(8)) / 8.0,
            Value(static_cast<int64_t>(rng.NextBounded(5)))});
      }
      const std::string where = "capacity " + std::to_string(capacity) +
                                ", rows " + std::to_string(rows);
      for (bool distinct_ranks : {false, true}) {
        if (distinct_ranks) {
          for (SketchEntry& offer : offers) offer.rank = rng.NextDouble();
        }
        const std::vector<SketchEntry> got = SelectKmv(offers, capacity);
        const std::vector<SketchEntry> want = SortEveryOffer(offers, capacity);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].key_hash, want[i].key_hash)
              << where << " entry " << i;
          EXPECT_EQ(got[i].rank, want[i].rank) << where << " entry " << i;
          EXPECT_EQ(got[i].value, want[i].value) << where << " entry " << i;
        }
      }
    }
  }
}

TEST(KmvSelectionTest, ProvisionalBoundFallsBackToTheUnfilteredSelection) {
  // 160 offers at capacity 16 set the provisional bound to 1.5 x 16 / 160
  // = 0.15. Ranks shaped so that none, a few or all offers pass it, and a
  // count of offers overstated 10x, against the selection with no bound:
  // a pass that admits fewer than capacity reruns unfiltered.
  constexpr size_t kCapacity = 16;
  constexpr size_t kOffers = 160;
  struct Shape {
    const char* name;
    double low_share;  // offers drawn below the bound, the rest above
    size_t told;       // the number of offers the selection expects
    int runs;          // offer_all calls
  };
  const Shape shapes[] = {
      {"every rank above the bound", 0.0, kOffers, 2},
      {"a few ranks below the bound", 0.05, kOffers, 2},
      {"uniform ranks", -1.0, kOffers, 1},
      {"offers overstated", -1.0, 10 * kOffers, 2},
  };
  Rng rng(47);
  for (const Shape& shape : shapes) {
    std::vector<SketchEntry> offers;
    for (size_t i = 0; i < kOffers; ++i) {
      double rank = rng.NextDouble();
      if (shape.low_share >= 0.0) {
        rank = static_cast<double>(i) < shape.low_share * kOffers
                   ? 0.15 * rank
                   : 0.5 + 0.5 * rank;
      }
      offers.push_back(SketchEntry{rng.NextBounded(40), rank,
                                   Value(static_cast<int64_t>(i % 7))});
    }
    // An offer exactly at the bound passes it.
    offers[3].rank = 1.5 * kCapacity / static_cast<double>(shape.told);
    KmvSelection selection(
        kCapacity, [&offers](size_t i) { return offers[i].value; },
        shape.told);
    int runs = 0;
    const std::vector<SketchEntry> got = selection.Select([&] {
      ++runs;
      for (size_t i = 0; i < offers.size(); ++i) {
        selection.Offer(offers[i].rank, offers[i].key_hash, i);
      }
    });
    const std::vector<SketchEntry> want = SelectKmv(offers, kCapacity);
    EXPECT_EQ(runs, shape.runs) << shape.name;
    ASSERT_EQ(got.size(), kCapacity) << shape.name;
    ASSERT_EQ(want.size(), kCapacity) << shape.name;
    for (size_t i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(got[i].key_hash, want[i].key_hash) << shape.name << " " << i;
      EXPECT_EQ(got[i].rank, want[i].rank) << shape.name << " " << i;
      EXPECT_EQ(got[i].value, want[i].value) << shape.name << " " << i;
    }
  }
}

// ------------------------------------------------------------- KeyHash ----

TEST(KeyHashTest, DeterministicAndSeedSeparated) {
  EXPECT_EQ(HashKey(Value("k1"), 0), HashKey(Value("k1"), 0));
  EXPECT_NE(HashKey(Value("k1"), 0), HashKey(Value("k1"), 1));
  EXPECT_NE(HashKey(Value("k1"), 0), HashKey(Value("k2"), 0));
  EXPECT_EQ(HashKey(Value(int64_t{5}), 0), HashKey(Value(int64_t{5}), 0));
}

TEST(KeyHashTest, TupleHashSeparatesOccurrences) {
  const uint64_t h = HashKey(Value("k"), 0);
  EXPECT_NE(TupleUnitHash(h, 1), TupleUnitHash(h, 2));
  EXPECT_NE(TupleUnitHash(h, 1), KeyUnitHash(h));
  EXPECT_EQ(TupleUnitHash(h, 3), TupleUnitHash(h, 3));
}

// ------------------------------------------------------ Builder helpers ---

/// Builds a train table with the given keys/targets.
std::shared_ptr<Table> MakeTrain(std::vector<std::string> keys,
                                 std::vector<int64_t> targets) {
  return *Table::FromColumns(
      {{"K", Column::MakeString(std::move(keys))},
       {"Y", Column::MakeInt64(std::move(targets))}});
}

SketchOptions Options(size_t n, uint64_t sampling_seed = 99) {
  SketchOptions options;
  options.capacity = n;
  options.sampling_seed = sampling_seed;
  return options;
}

Result<Sketch> BuildTrain(SketchMethod method, const Table& table, size_t n) {
  auto builder = MakeSketchBuilder(method, Options(n));
  return builder->SketchTrain(*(*table.GetColumn("K")),
                              *(*table.GetColumn("Y")));
}

constexpr SketchMethod kAllMethods[] = {
    SketchMethod::kTupsk, SketchMethod::kLv2sk, SketchMethod::kPrisk,
    SketchMethod::kIndsk, SketchMethod::kCsk};

// ------------------------------------------------------ Generic builder ---

class SketchMethodTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(SketchMethodTest, NamesRoundTrip) {
  auto parsed = SketchMethodFromString(SketchMethodToString(GetParam()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, GetParam());
}

TEST_P(SketchMethodTest, TrainSketchRespectsSizeBound) {
  // 1000 rows over 200 distinct keys; capacity 64.
  Rng rng(5);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key" + std::to_string(rng.NextBounded(200)));
    targets.push_back(static_cast<int64_t>(rng.NextBounded(50)));
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = BuildTrain(GetParam(), *table, 64);
  ASSERT_TRUE(sketch.ok());
  // LV2SK/PRISK are bounded by 2n; the others by n.
  const size_t bound = (GetParam() == SketchMethod::kLv2sk ||
                        GetParam() == SketchMethod::kPrisk)
                           ? 128
                           : 64;
  EXPECT_LE(sketch->size(), bound);
  EXPECT_GT(sketch->size(), 0u);
  EXPECT_EQ(sketch->capacity, 64u);
  EXPECT_EQ(sketch->source_rows, 1000u);
  EXPECT_EQ(sketch->source_distinct_keys, table->column(0)->CountDistinct());
}

TEST_P(SketchMethodTest, SmallTableFitsEntirely) {
  // With capacity >= rows, coordinated sketches must keep every usable row
  // (CSK keeps one per key; INDSK keeps all).
  auto table = MakeTrain({"a", "b", "c"}, {1, 2, 3});
  auto sketch = BuildTrain(GetParam(), *table, 100);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->size(), 3u);
}

TEST_P(SketchMethodTest, DeterministicAcrossRebuilds) {
  Rng rng(17);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("k" + std::to_string(rng.NextBounded(80)));
    targets.push_back(static_cast<int64_t>(i));
  }
  auto table = MakeTrain(keys, targets);
  auto a = BuildTrain(GetParam(), *table, 32);
  auto b = BuildTrain(GetParam(), *table, 32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->entries[i].key_hash, b->entries[i].key_hash);
    EXPECT_EQ(a->entries[i].value, b->entries[i].value);
  }
}

TEST_P(SketchMethodTest, SkipsNullKeysAndValues) {
  auto keys = Column::MakeString({"a", "b", "c", "d"},
                                 {true, false, true, true});
  auto values = Column::MakeInt64({1, 2, 3, 4}, {true, true, false, true});
  auto builder = MakeSketchBuilder(GetParam(), Options(10));
  auto sketch = builder->SketchTrain(*keys, *values);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->source_rows, 2u);  // only rows 0 and 3 fully valid
  EXPECT_LE(sketch->size(), 2u);
}

TEST_P(SketchMethodTest, CandidateSketchAggregatesPerKey) {
  // Keys b and c repeat; AVG must be applied before sampling.
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b", "b", "b", "c", "c", "c"})},
       {"Z", Column::MakeInt64({1, 2, 2, 5, 0, 3, 3})}});
  auto builder = MakeSketchBuilder(GetParam(), Options(10));
  auto sketch = builder->SketchCandidate(*(*cand->GetColumn("K")),
                                         *(*cand->GetColumn("Z")),
                                         AggKind::kAvg);
  ASSERT_TRUE(sketch.ok());
  // Unique keys after aggregation.
  std::unordered_set<uint64_t> key_hashes;
  for (const auto& e : sketch->entries) key_hashes.insert(e.key_hash);
  EXPECT_EQ(key_hashes.size(), sketch->size());
  if (GetParam() != SketchMethod::kCsk) {
    // AVG values are {a->1, b->3, c->2}.
    std::unordered_map<uint64_t, double> expected = {
        {HashKey(Value("a"), 0), 1.0},
        {HashKey(Value("b"), 0), 3.0},
        {HashKey(Value("c"), 0), 2.0}};
    ASSERT_EQ(sketch->size(), 3u);
    for (const auto& e : sketch->entries) {
      EXPECT_EQ(*e.value.AsDouble(), expected.at(e.key_hash));
    }
  } else {
    // CSK keeps the first value per key: {a->1, b->2, c->0}.
    std::unordered_map<uint64_t, int64_t> expected = {
        {HashKey(Value("a"), 0), 1},
        {HashKey(Value("b"), 0), 2},
        {HashKey(Value("c"), 0), 0}};
    for (const auto& e : sketch->entries) {
      EXPECT_EQ(e.value.int64(), expected.at(e.key_hash));
    }
  }
}

TEST_P(SketchMethodTest, ZeroCapacityRejected) {
  auto table = MakeTrain({"a"}, {1});
  auto builder = MakeSketchBuilder(GetParam(), Options(0));
  EXPECT_FALSE(builder
                   ->SketchTrain(*(*table->GetColumn("K")),
                                 *(*table->GetColumn("Y")))
                   .ok());
}

TEST_P(SketchMethodTest, MismatchedColumnsRejected) {
  auto keys = Column::MakeString({"a", "b"});
  auto values = Column::MakeInt64({1});
  auto builder = MakeSketchBuilder(GetParam(), Options(4));
  EXPECT_FALSE(builder->SketchTrain(*keys, *values).ok());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SketchMethodTest,
                         testing::ValuesIn(kAllMethods),
                         [](const testing::TestParamInfo<SketchMethod>& info) {
                           return SketchMethodToString(info.param);
                         });

// --------------------------------------------------------------- TUPSK ----

TEST(TupskTest, RepeatedKeysRepresentedProportionally) {
  // Key "hot" fills 80% of rows; in a TUPSK sketch its share of entries
  // should be ~80% because rows are sampled uniformly.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(i % 5 == 0 ? "cold" + std::to_string(i) : "hot");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kTupsk, *table, 512);
  const uint64_t hot_hash = HashKey(Value("hot"), 0);
  size_t hot = 0;
  for (const auto& e : sketch.entries) {
    if (e.key_hash == hot_hash) ++hot;
  }
  const double share = static_cast<double>(hot) / sketch.size();
  EXPECT_NEAR(share, 0.8, 0.08);
}

TEST(TupskTest, UniformRowInclusion) {
  // Every row (not key) should appear in the sketch with probability n/N.
  // Build many sketches varying the hash seed and count inclusions of a
  // high-frequency key row vs a unique key row.
  std::vector<std::string> keys = {"dup", "dup", "dup", "dup"};
  std::vector<int64_t> targets = {0, 1, 2, 3};
  for (int i = 0; i < 60; ++i) {
    keys.push_back("solo" + std::to_string(i));
    targets.push_back(100 + i);
  }
  auto table = MakeTrain(keys, targets);
  size_t dup_row_hits = 0, solo_row_hits = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(16);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    for (const auto& e : sketch.entries) {
      if (e.value == Value(int64_t{1})) ++dup_row_hits;     // 2nd dup row
      if (e.value == Value(int64_t{105})) ++solo_row_hits;  // a solo row
    }
  }
  // Both rows should be included at the same rate n/N = 16/64 = 0.25.
  const double dup_rate = static_cast<double>(dup_row_hits) / kTrials;
  const double solo_rate = static_cast<double>(solo_row_hits) / kTrials;
  EXPECT_NEAR(dup_rate, 0.25, 0.07);
  EXPECT_NEAR(solo_rate, 0.25, 0.07);
}

TEST(TupskTest, PaperPathologicalExampleKeepsTargetEntropy) {
  // Section IV-B: K = [a,b,c,d,e,f,f,...,f], Y = [0,0,0,0,0,1,2,...,95].
  // LV2SK's level-1 key sampling can select only the five zero rows,
  // collapsing the target entropy; TUPSK samples rows uniformly so the f
  // rows (95% of the table) dominate every sketch.
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  std::vector<int64_t> targets = {0, 0, 0, 0, 0};
  for (int i = 1; i <= 95; ++i) {
    keys.push_back("f");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kTupsk, *table, 5);
  EXPECT_EQ(sketch.size(), 5u);
  const uint64_t f_hash = HashKey(Value("f"), 0);
  size_t f_rows = 0;
  for (const auto& e : sketch.entries) {
    if (e.key_hash == f_hash) ++f_rows;
  }
  // E[f rows] = 5 * 0.95 = 4.75; anything >= 3 keeps entropy healthy. With
  // the fixed seed this is deterministic; assert the qualitative property.
  EXPECT_GE(f_rows, 3u);
}

// --------------------------------------------------------------- LV2SK ----

TEST(Lv2skTest, PerKeyCapMatchesFormula) {
  // One key with 60% of rows, n = 10: n_k = floor(10 * 0.6) = 6 samples;
  // rare keys get max(1, floor(10 * small)) = 1.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("heavy");
    targets.push_back(i);
  }
  for (int i = 0; i < 40; ++i) {
    keys.push_back("light" + std::to_string(i));
    targets.push_back(1000 + i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kLv2sk, *table, 10);
  const uint64_t heavy_hash = HashKey(Value("heavy"), 0);
  std::unordered_map<uint64_t, size_t> per_key;
  for (const auto& e : sketch.entries) ++per_key[e.key_hash];
  // Heavy key, if selected at level 1, carries exactly 6 entries.
  if (per_key.count(heavy_hash) > 0) {
    EXPECT_EQ(per_key[heavy_hash], 6u);
  }
  for (const auto& [hash, count] : per_key) {
    if (hash != heavy_hash) {
      EXPECT_EQ(count, 1u);
    }
  }
}

TEST(Lv2skTest, UniqueKeysBehaveLikeKmv) {
  // With unique keys, level 2 always keeps exactly 1 row per key, so the
  // sketch is exactly the n minimum-rank keys.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 300; ++i) {
    keys.push_back("u" + std::to_string(i));
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kLv2sk, *table, 50);
  EXPECT_EQ(sketch.size(), 50u);
  std::unordered_set<uint64_t> distinct;
  for (const auto& e : sketch.entries) distinct.insert(e.key_hash);
  EXPECT_EQ(distinct.size(), 50u);
}

TEST(Lv2skTest, PathologicalExampleUnderrepresentsHeavyKey) {
  // Counterpart of TupskTest.PaperPathologicalExample: with keys a-e and f,
  // level 1 picks 5 of 6 distinct keys regardless of frequency, so the
  // probability that f is excluded is 1/6 -- and when it is included its
  // rows are capped at ~n*0.95. Verify the first-level frequency blindness:
  // across seeds, f is absent from ~1/6 of sketches.
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  std::vector<int64_t> targets = {0, 0, 0, 0, 0};
  for (int i = 1; i <= 95; ++i) {
    keys.push_back("f");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  int absent = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(5);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kLv2sk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    const uint64_t f_hash = HashKey(Value("f"), trial + 1);
    bool has_f = false;
    for (const auto& e : sketch.entries) {
      if (e.key_hash == f_hash) has_f = true;
    }
    if (!has_f) ++absent;
  }
  EXPECT_NEAR(static_cast<double>(absent) / kTrials, 1.0 / 6.0, 0.05);
}

// --------------------------------------------------------------- PRISK ----

TEST(PriskTest, PrioritizesFrequentKeys) {
  // With weights = frequencies, the heavy key should almost always be
  // selected at level 1, unlike LV2SK's frequency-blind selection.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 95; ++i) {
    keys.push_back("heavy");
    targets.push_back(i);
  }
  for (int i = 0; i < 20; ++i) {
    keys.push_back("rare" + std::to_string(i));
    targets.push_back(1000 + i);
  }
  auto table = MakeTrain(keys, targets);
  int heavy_present = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(5);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kPrisk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    const uint64_t heavy_hash = HashKey(Value("heavy"), trial + 1);
    for (const auto& e : sketch.entries) {
      if (e.key_hash == heavy_hash) {
        ++heavy_present;
        break;
      }
    }
  }
  // Priority rank u/95 vs u/1: heavy key wins level-1 almost surely.
  EXPECT_GT(static_cast<double>(heavy_present) / kTrials, 0.95);
}

// ----------------------------------------------------------------- CSK ----

TEST(CskTest, FirstValuePerKeyOnTrainSide) {
  auto table = MakeTrain({"a", "a", "a", "b"}, {7, 8, 9, 1});
  auto sketch = *BuildTrain(SketchMethod::kCsk, *table, 10);
  ASSERT_EQ(sketch.size(), 2u);  // one entry per distinct key
  for (const auto& e : sketch.entries) {
    if (e.key_hash == HashKey(Value("a"), 0)) {
      EXPECT_EQ(e.value, Value(int64_t{7}));  // first seen
    }
  }
}

// --------------------------------------------------------------- INDSK ----

TEST(IndskTest, IndependentSamplingYieldsSmallOverlap) {
  // Two tables sharing 400 unique keys; INDSK sketches of size 64 overlap
  // on ~64*64/400 = ~10 keys, while TUPSK overlaps on ~64.
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back(i);
  }
  auto train = MakeTrain(keys, values);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Z", Column::MakeInt64(values)}});

  auto make_join_size = [&](SketchMethod method) {
    SketchOptions train_options = Options(64, /*sampling_seed=*/111);
    SketchOptions cand_options = Options(64, /*sampling_seed=*/222);
    auto train_builder = MakeSketchBuilder(method, train_options);
    auto cand_builder = MakeSketchBuilder(method, cand_options);
    auto s_train = *train_builder->SketchTrain(*(*train->GetColumn("K")),
                                               *(*train->GetColumn("Y")));
    auto s_cand = *cand_builder->SketchCandidate(*(*cand->GetColumn("K")),
                                                 *(*cand->GetColumn("Z")),
                                                 AggKind::kFirst);
    return JoinSketches(s_train, s_cand)->join_size;
  };
  const size_t ind_join = make_join_size(SketchMethod::kIndsk);
  const size_t tup_join = make_join_size(SketchMethod::kTupsk);
  EXPECT_EQ(tup_join, 64u);   // coordinated: every sampled key matches
  EXPECT_LT(ind_join, 30u);   // independent: quadratically fewer
}

// ---------------------------------------------------------- Sketch join ---

TEST(SketchJoinTest, RecoversExactPairsOfFullJoin) {
  // The sketch-join sample must be a subset of the true join pairs.
  Rng rng(23);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  std::vector<std::string> cand_keys;
  std::vector<int64_t> cand_values;
  for (int i = 0; i < 300; ++i) {
    const int k = static_cast<int>(rng.NextBounded(60));
    keys.push_back("k" + std::to_string(k));
    targets.push_back(k * 10 + static_cast<int>(rng.NextBounded(3)));
  }
  for (int k = 0; k < 60; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(k * 7);
  }
  auto train = MakeTrain(keys, targets);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});

  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(64));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 64u);

  // Ground truth: the full join pairs target k*10+j with feature k*7.
  for (size_t i = 0; i < joined.sample.size(); ++i) {
    const int64_t y = joined.sample.y[i].int64();
    const int64_t x = joined.sample.x[i].int64();
    EXPECT_EQ(x, (y / 10) * 7) << "pair " << i;
  }
}

TEST(SketchJoinTest, TrainMultiplicityPreserved) {
  // Repeated train keys must produce repeated feature values in the sample.
  auto train = MakeTrain({"a", "a", "a", "b"}, {1, 2, 3, 4});
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b"})},
       {"Z", Column::MakeInt64({100, 200})}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 4u);
  EXPECT_EQ(joined.matched_keys, 2u);
  size_t feature_100 = 0;
  for (const Value& x : joined.sample.x) {
    if (x == Value(int64_t{100})) ++feature_100;
  }
  EXPECT_EQ(feature_100, 3u);  // one per repeated "a" row
}

TEST(SketchJoinTest, RejectsTrainSketchOnRightSide) {
  auto train = MakeTrain({"a", "a"}, {1, 2});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  EXPECT_FALSE(JoinSketches(s_train, s_train).ok());
}

TEST(SketchJoinTest, DisjointKeysGiveEmptyJoin) {
  auto train = MakeTrain({"a", "b"}, {1, 2});
  auto cand = *Table::FromColumns({{"K", Column::MakeString({"x", "y"})},
                                   {"Z", Column::MakeInt64({3, 4})}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 0u);
  // Estimation on an empty join must fail cleanly via min_join_size.
  EXPECT_FALSE(
      EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE, {}, 1).ok());
}

TEST(SketchJoinTest, EstimateMatchesFullJoinOnCompleteSketch) {
  // Capacity >= table sizes: the sketch join IS the full join, so the MI
  // estimates must agree exactly.
  Rng rng(29);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  std::vector<std::string> cand_keys;
  std::vector<int64_t> cand_values;
  for (int i = 0; i < 200; ++i) {
    const int k = static_cast<int>(rng.NextBounded(40));
    keys.push_back("k" + std::to_string(k));
    targets.push_back((k % 4) * 3 + static_cast<int>(rng.NextBounded(2)));
  }
  for (int k = 0; k < 40; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(k % 4);
  }
  auto train = MakeTrain(keys, targets);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});

  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10000));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto sketch_mi =
      *EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE, {}, 1);
  ASSERT_EQ(sketch_mi.join_size, 200u);

  auto full = *LeftJoinAggregate(*train, "K", "Y", *cand, "K", "Z",
                                 {AggKind::kFirst, true, "X"});
  PairedSample full_sample;
  auto x_col = *full.table->GetColumn("X");
  auto y_col = *full.table->GetColumn("Y");
  for (size_t r = 0; r < full.table->num_rows(); ++r) {
    full_sample.x.push_back(x_col->GetValue(r));
    full_sample.y.push_back(y_col->GetValue(r));
  }
  const double full_mi = *EstimateMI(MIEstimatorKind::kMLE, full_sample);
  EXPECT_NEAR(sketch_mi.mi, full_mi, 1e-9);
}

TEST(SketchJoinTest, AutoEstimatorSelection) {
  // String target + numeric feature -> DC-KSG via the auto policy.
  Rng rng(31);
  std::vector<std::string> keys, targets;
  std::vector<std::string> cand_keys;
  std::vector<double> cand_values;
  for (int i = 0; i < 400; ++i) {
    const int k = static_cast<int>(rng.NextBounded(100));
    keys.push_back("k" + std::to_string(k));
    targets.push_back("cat" + std::to_string(k % 3));
  }
  for (int k = 0; k < 100; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(static_cast<double>(k % 3) + rng.Gaussian(0, 0.1));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeString(targets)}});
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeDouble(cand_values)}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(256));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kAvg);
  auto joined = *JoinSketches(s_train, s_cand);
  auto result = *ScoreSketchJoinSample(joined.sample, joined.join_size,
                                       std::nullopt, {}, 10);
  EXPECT_EQ(result.estimator, MIEstimatorKind::kDCKSG);
  EXPECT_GT(result.mi, 0.5);  // strong dependence planted
}

// -------------------------------------------- Coordination across sides ---

class CoordinationTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(CoordinationTest, CoordinatedMethodsAchieveFullJoinOnUniqueKeys) {
  // Unique keys on both sides, full overlap: every coordinated sketch pair
  // must recover ~n join samples (INDSK is excluded -- by design it can't).
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back(i);
  }
  auto train = MakeTrain(keys, values);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Z", Column::MakeInt64(values)}});
  auto builder = MakeSketchBuilder(GetParam(), Options(128));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 128u)
      << SketchMethodToString(GetParam())
      << " lost coordination on unique keys";
}

INSTANTIATE_TEST_SUITE_P(
    Coordinated, CoordinationTest,
    testing::Values(SketchMethod::kTupsk, SketchMethod::kLv2sk,
                    SketchMethod::kPrisk, SketchMethod::kCsk),
    [](const testing::TestParamInfo<SketchMethod>& info) {
      return SketchMethodToString(info.param);
    });

// ------------------------------------------------- Merge-scoring kernel ---

// Scores `candidate` through the scoring kernel the way every discovery
// path does: train runs built once, candidate columns checked and gathered.
MergeJoinScore ScoreThroughKernel(
    const Sketch& train, const Sketch& candidate,
    const std::optional<MIEstimatorKind>& estimator, size_t min_join_size) {
  auto runs = TrainKeyRuns::Build(train);
  EXPECT_TRUE(runs.ok()) << runs.status();
  auto score = ScoreCandidateSketch(train, *runs, candidate, estimator, {},
                                    min_join_size);
  EXPECT_TRUE(score.ok()) << score.status();
  return *score;
}

TEST(MergeKernelTest, MatchesJoinSketchesForEveryMethod) {
  // The kernel is an optimization, not a semantic change: for every sketch
  // variant, explicit and auto estimators alike, it must reproduce
  // JoinSketches + ScoreSketchJoinSample bit for bit — train-side
  // multiplicity and pair order included, or the MI would differ.
  Rng rng(77);
  std::vector<std::string> train_keys, cand_keys;
  std::vector<int64_t> train_values, cand_values;
  for (int i = 0; i < 1500; ++i) {
    train_keys.push_back("k" + std::to_string(rng.NextBounded(300)));
    train_values.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  for (int i = 0; i < 350; ++i) {
    cand_keys.push_back("k" + std::to_string(i));
    cand_values.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  auto train = MakeTrain(train_keys, train_values);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});
  for (SketchMethod method : kAllMethods) {
    auto builder = MakeSketchBuilder(method, Options(96));
    auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                         *(*train->GetColumn("Y")));
    auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                            *(*cand->GetColumn("Z")),
                                            AggKind::kAvg);
    auto joined = *JoinSketches(s_train, s_cand);
    for (const std::optional<MIEstimatorKind>& estimator :
         {std::optional<MIEstimatorKind>(MIEstimatorKind::kMLE),
          std::optional<MIEstimatorKind>()}) {
      auto reference = ScoreSketchJoinSample(joined.sample, joined.join_size,
                                             estimator, {}, 1);
      MergeJoinScore fast = ScoreThroughKernel(s_train, s_cand, estimator, 1);
      EXPECT_EQ(fast.join_size, joined.join_size)
          << SketchMethodToString(method);
      ASSERT_EQ(fast.scored.has_value(), joined.join_size >= 1);
      if (!fast.scored.has_value()) continue;
      ASSERT_EQ(fast.scored->ok(), reference.ok())
          << SketchMethodToString(method);
      if (!reference.ok()) continue;
      EXPECT_EQ((*fast.scored)->mi, reference->mi)
          << SketchMethodToString(method);
      EXPECT_EQ((*fast.scored)->join_size, reference->join_size);
      EXPECT_EQ((*fast.scored)->estimator, reference->estimator);
    }
  }
}

TEST(MergeKernelTest, MixedTypeSketchesChooseFromTheMatchedValues) {
  // A sketch whose values mix types (or hold nulls) gives no type for its
  // subsets, so the kernel infers the sample's types from the values that
  // actually matched — the same estimator, estimate and error status as
  // the Value reference, whichever entries the train side hits.
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  for (uint64_t key = 1; key <= 40; ++key) {
    Value value = key % 10 == 0   ? Value("label" + std::to_string(key % 3))
                  : key == 33     ? Value()
                                  : Value(static_cast<double>(key % 7));
    cand.entries.push_back(SketchEntry{key, 0.1, value});
  }
  auto make_train = [](uint64_t first, uint64_t last, bool mixed) {
    Sketch train;
    train.side = SketchSide::kTrain;
    for (uint64_t key = first; key <= last; ++key) {
      for (int copy = 0; copy < 2; ++copy) {
        Value value = mixed && key % 4 == 0
                          ? Value("y" + std::to_string(copy))
                          : Value(static_cast<int64_t>(key % 5 + copy));
        train.entries.push_back(SketchEntry{key, 0.1 * copy, value});
      }
    }
    return train;
  };
  // Numeric matches only, a string among the matches, a null among them;
  // each with a numeric and a mixed train side.
  for (const auto& [first, last] : {std::pair<uint64_t, uint64_t>{1, 9},
                                    {11, 19},
                                    {1, 29},
                                    {31, 39}}) {
    for (bool mixed_train : {false, true}) {
      const Sketch train = make_train(first, last, mixed_train);
      auto joined = *JoinSketches(train, cand);
      auto reference = ScoreSketchJoinSample(joined.sample, joined.join_size,
                                             std::nullopt, {}, 1);
      MergeJoinScore fast = ScoreThroughKernel(train, cand, std::nullopt, 1);
      const std::string where = std::to_string(first) + ".." +
                                std::to_string(last) +
                                (mixed_train ? " mixed train" : "");
      ASSERT_TRUE(fast.scored.has_value()) << where;
      ASSERT_EQ(fast.scored->ok(), reference.ok()) << where;
      if (!reference.ok()) {
        EXPECT_EQ(fast.scored->status().ToString(),
                  reference.status().ToString())
            << where;
        continue;
      }
      EXPECT_EQ((*fast.scored)->estimator, reference->estimator) << where;
      EXPECT_EQ((*fast.scored)->mi, reference->mi) << where;
    }
  }
}

TEST(MergeKernelTest, BelowMinimumSkipsWithoutScoring) {
  Sketch train;
  train.side = SketchSide::kTrain;
  train.entries.push_back(SketchEntry{5, 0.1, Value(int64_t{1})});
  train.entries.push_back(SketchEntry{5, 0.2, Value(int64_t{2})});
  train.entries.push_back(SketchEntry{8, 0.3, Value(int64_t{3})});
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{5, 0.1, Value(int64_t{50})});
  MergeJoinScore below =
      ScoreThroughKernel(train, cand, MIEstimatorKind::kMLE, 3);
  EXPECT_EQ(below.join_size, 2u);  // train multiplicity counted
  EXPECT_FALSE(below.scored.has_value());
  MergeJoinScore at = ScoreThroughKernel(train, cand, MIEstimatorKind::kMLE, 2);
  EXPECT_EQ(at.join_size, 2u);
  ASSERT_TRUE(at.scored.has_value());
  EXPECT_TRUE(at.scored->ok()) << at.scored->status();
}

TEST(MergeKernelTest, EmptyTrainSketchJoinsEmpty) {
  Sketch train;
  train.side = SketchSide::kTrain;
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{42, 0.1, Value(int64_t{1})});
  MergeJoinScore score = ScoreThroughKernel(train, cand, std::nullopt, 1);
  EXPECT_EQ(score.join_size, 0u);
  EXPECT_FALSE(score.scored.has_value());
}

TEST(MergeKernelTest, TrainRunsRejectUnsortedEntries) {
  Sketch train;
  train.side = SketchSide::kTrain;
  // Same key hash in two non-adjacent runs violates the sort invariant.
  train.entries.push_back(SketchEntry{7, 0.1, Value(int64_t{1})});
  train.entries.push_back(SketchEntry{3, 0.2, Value(int64_t{2})});
  train.entries.push_back(SketchEntry{7, 0.3, Value(int64_t{3})});
  auto runs = TrainKeyRuns::Build(train);
  EXPECT_TRUE(runs.status().IsInvalidArgument());
  // Unique but descending keys: no key repeats, yet the merge would miss
  // every match after the first, so this is rejected too.
  Sketch descending;
  descending.side = SketchSide::kTrain;
  descending.entries.push_back(SketchEntry{9, 0.1, Value(int64_t{1})});
  descending.entries.push_back(SketchEntry{4, 0.2, Value(int64_t{2})});
  EXPECT_TRUE(TrainKeyRuns::Build(descending).status().IsInvalidArgument());
}

TEST(MergeKernelTest, TrainRunsGroupEqualKeys) {
  Sketch train;
  train.side = SketchSide::kTrain;
  for (uint64_t key : {2, 2, 2, 5, 9, 9}) {
    train.entries.push_back(SketchEntry{key, 0.1, Value(int64_t{1})});
  }
  auto runs = *TrainKeyRuns::Build(train);
  EXPECT_EQ(runs.keys, (std::vector<uint64_t>{2, 5, 9}));
  ASSERT_EQ(runs.spans.size(), 3u);
  EXPECT_EQ(runs.spans[0], std::make_pair(0u, 3u));
  EXPECT_EQ(runs.spans[1], std::make_pair(3u, 4u));
  EXPECT_EQ(runs.spans[2], std::make_pair(4u, 6u));
}

TEST(MergeKernelTest, CandidateKeysMustStrictlyAscend) {
  auto make = [](std::vector<uint64_t> keys) {
    Sketch cand;
    cand.side = SketchSide::kCandidate;
    for (uint64_t key : keys) {
      cand.entries.push_back(SketchEntry{key, 0.1, Value(int64_t{1})});
    }
    return cand;
  };
  std::vector<uint64_t> keys;
  ASSERT_TRUE(AppendCandidateKeys(make({1, 4, 9}), &keys).ok());
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 4, 9}));

  keys.clear();
  Status dupes = AppendCandidateKeys(make({1, 5, 5}), &keys);
  EXPECT_TRUE(dupes.IsInvalidArgument());
  EXPECT_NE(dupes.message().find("duplicate"), std::string::npos);

  keys.clear();
  Status descending = AppendCandidateKeys(make({9, 4, 1}), &keys);
  EXPECT_TRUE(descending.IsInvalidArgument());
  EXPECT_NE(descending.message().find("not sorted"), std::string::npos);

  Sketch train_side = make({1});
  train_side.side = SketchSide::kTrain;
  EXPECT_TRUE(AppendCandidateKeys(train_side, &keys).IsInvalidArgument());
}

// ------------------------------------- Bucket-directory probe oracles ---

// A train sketch with one run per key of `run_keys` (ascending), run r
// repeated `multiplicity(r)` times; int64 values from `rng`.
template <typename Multiplicity>
Sketch OracleTrain(const std::vector<uint64_t>& run_keys,
                   Multiplicity&& multiplicity, Rng& rng) {
  Sketch train;
  train.side = SketchSide::kTrain;
  for (size_t r = 0; r < run_keys.size(); ++r) {
    for (size_t copy = 0; copy < multiplicity(r); ++copy) {
      train.entries.push_back(SketchEntry{
          run_keys[r], 0.1,
          Value(static_cast<int64_t>(rng.NextBounded(6)))});
    }
  }
  return train;
}

Sketch OracleTrain(const std::vector<uint64_t>& run_keys, Rng& rng) {
  return OracleTrain(run_keys, [](size_t) { return size_t{1}; }, rng);
}

// A candidate sketch over `keys` (ascending, distinct).
Sketch OracleCandidate(const std::vector<uint64_t>& keys, Rng& rng) {
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  for (uint64_t key : keys) {
    cand.entries.push_back(SketchEntry{
        key, 0.1, Value(static_cast<int64_t>(rng.NextBounded(5)))});
  }
  return cand;
}

std::vector<uint64_t> SortedDistinct(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The kernel against JoinSketches + ScoreSketchJoinSample, with an
// explicit and the auto estimator: join size, estimator and the MI's bits,
// or the same error status.
void ExpectKernelMatchesOracle(
    const Sketch& train, const Sketch& cand, const std::string& where,
    const std::vector<std::optional<MIEstimatorKind>>& estimators =
        {MIEstimatorKind::kMLE, std::nullopt},
    size_t min_join_size = 1) {
  auto joined = JoinSketches(train, cand);
  ASSERT_TRUE(joined.ok()) << where << ": " << joined.status();
  for (const std::optional<MIEstimatorKind>& estimator : estimators) {
    MergeJoinScore fast =
        ScoreThroughKernel(train, cand, estimator, min_join_size);
    EXPECT_EQ(fast.join_size, joined->join_size) << where;
    ASSERT_EQ(fast.scored.has_value(), joined->join_size >= min_join_size)
        << where;
    if (!fast.scored.has_value()) continue;
    auto reference = ScoreSketchJoinSample(joined->sample, joined->join_size,
                                           estimator, {}, min_join_size);
    ASSERT_EQ(fast.scored->ok(), reference.ok()) << where;
    if (!reference.ok()) {
      EXPECT_EQ(fast.scored->status().ToString(),
                reference.status().ToString())
          << where;
      continue;
    }
    EXPECT_EQ(Bits((*fast.scored)->mi), Bits(reference->mi)) << where;
    EXPECT_EQ((*fast.scored)->join_size, reference->join_size) << where;
    EXPECT_EQ((*fast.scored)->estimator, reference->estimator) << where;
  }
}

TEST(MergeKernelTest, KeysSharingTheirTopBitsFallInOneBucket) {
  // 300 runs whose keys share their top 20 bits: the directory's 4096
  // buckets put all of them in one, so every lookup scans that bucket.
  Rng rng(11);
  const uint64_t prefix = uint64_t{0xABCDE} << 44;
  std::vector<uint64_t> pool;
  for (int i = 0; i < 600; ++i) {
    pool.push_back(prefix | (rng.Next64() >> 20));
  }
  pool = SortedDistinct(pool);
  std::vector<uint64_t> train_keys, cand_keys;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i % 2 == 0) train_keys.push_back(pool[i]);
    if (i % 3 == 0) cand_keys.push_back(pool[i]);
  }
  const Sketch train = OracleTrain(train_keys, rng);
  auto runs = *TrainKeyRuns::Build(train);
  EXPECT_EQ(runs.bucket_begin.size(), 4097u);
  const uint32_t bucket = static_cast<uint32_t>(prefix >> runs.bucket_shift);
  EXPECT_EQ(runs.bucket_begin[bucket], 0u);
  EXPECT_EQ(runs.bucket_begin[bucket + 1], train_keys.size());
  ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                            "one bucket");
}

TEST(MergeKernelTest, ExtremeKeysHitTheFirstAndLastBuckets) {
  Rng rng(12);
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  const std::vector<uint64_t> train_keys = {0, 1, uint64_t{1} << 63,
                                            max - 1, max};
  const Sketch train = OracleTrain(
      train_keys, [](size_t r) { return r % 2 + 1; }, rng);
  for (const std::vector<uint64_t>& cand_keys :
       {std::vector<uint64_t>{0, max}, std::vector<uint64_t>{0},
        std::vector<uint64_t>{max}, std::vector<uint64_t>{2, max - 2},
        std::vector<uint64_t>{0, 1, 5, (uint64_t{1} << 63) - 1, max - 1,
                              max}}) {
    ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                              "extremes x" + std::to_string(cand_keys.size()));
  }
  // A train without the extremes, probed by them: the last buckets are
  // empty and begin past the final run.
  const Sketch inner = OracleTrain({5, 6, uint64_t{1} << 40}, rng);
  ExpectKernelMatchesOracle(inner, OracleCandidate({0, 6, max}, rng),
                            "extremes vs inner train");
}

TEST(MergeKernelTest, SingleRunTrain) {
  Rng rng(13);
  const uint64_t key = 0x5555555555555555ull;
  const Sketch train = OracleTrain({key}, [](size_t) { return size_t{3}; },
                                   rng);
  for (const std::vector<uint64_t>& cand_keys :
       {std::vector<uint64_t>{key}, std::vector<uint64_t>{key - 1, key + 1},
        std::vector<uint64_t>{0, key, std::numeric_limits<uint64_t>::max()},
        std::vector<uint64_t>{key + 1}}) {
    ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                              "single run x" +
                                  std::to_string(cand_keys.size()));
  }
}

TEST(MergeKernelTest, MoreRunsThanTheBucketCap) {
  // 20000 runs want 2^18 buckets; the cap leaves 2^16, ~0.3 runs each,
  // so buckets with several runs are common. The 10000-pair join also
  // exceeds the retained-scratch bound.
  Rng rng(14);
  std::vector<uint64_t> pool;
  for (int i = 0; i < 30000; ++i) pool.push_back(rng.Next64());
  pool = SortedDistinct(pool);
  std::vector<uint64_t> train_keys(pool.begin(), pool.begin() + 20000);
  std::vector<uint64_t> cand_keys(pool.begin() + 10000, pool.end());
  const Sketch train = OracleTrain(train_keys, rng);
  auto runs = *TrainKeyRuns::Build(train);
  EXPECT_EQ(runs.bucket_begin.size(), (size_t{1} << 16) + 1);
  EXPECT_EQ(runs.bucket_begin.back(), train_keys.size());
  ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                            "over the bucket cap");
}

TEST(MergeKernelTest, TrainRunsWithMultiplicity) {
  Rng rng(15);
  std::vector<uint64_t> pool;
  for (int i = 0; i < 400; ++i) pool.push_back(rng.Next64());
  pool = SortedDistinct(pool);
  std::vector<uint64_t> train_keys, cand_keys;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i % 4 != 3) train_keys.push_back(pool[i]);
    if (i % 2 == 0) cand_keys.push_back(pool[i]);
  }
  const Sketch train = OracleTrain(
      train_keys, [](size_t r) { return r % 5 + 1; }, rng);
  ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                            "multiplicity 1..5");
}

TEST(MergeKernelTest, EmptyTrainAndEmptyCandidate) {
  Rng rng(16);
  const Sketch empty_train = OracleTrain({}, rng);
  const Sketch empty_cand = OracleCandidate({}, rng);
  const Sketch train = OracleTrain({3, 9, 27}, rng);
  const Sketch cand = OracleCandidate({3, 9, 27}, rng);
  ExpectKernelMatchesOracle(empty_train, cand, "empty train");
  ExpectKernelMatchesOracle(train, empty_cand, "empty candidate");
  ExpectKernelMatchesOracle(empty_train, empty_cand, "both empty");
  // With no minimum, an empty join reaches the estimator and fails there
  // exactly as the Value path does.
  auto joined = *JoinSketches(empty_train, cand);
  auto reference = ScoreSketchJoinSample(joined.sample, 0, std::nullopt, {},
                                         0);
  MergeJoinScore fast = ScoreThroughKernel(empty_train, cand, std::nullopt, 0);
  ASSERT_TRUE(fast.scored.has_value());
  ASSERT_EQ(fast.scored->ok(), reference.ok());
  if (!reference.ok()) {
    EXPECT_EQ(fast.scored->status().ToString(),
              reference.status().ToString());
  }
}

TEST(MergeKernelTest, RandomPairsMatchTheOracle) {
  // 1200 seeded pairs: sizes from 0 to ~500 runs, overlap from none to
  // full, multiplicities 1..3, and every fourth pair's keys squeezed into
  // a few top-bit prefixes so buckets collide.
  Rng rng(20240917);
  for (int pair = 0; pair < 1200; ++pair) {
    const size_t pool_size = 1 + rng.NextBounded(600);
    const int clustered = pair % 4 == 0;
    std::vector<uint64_t> pool;
    for (size_t i = 0; i < pool_size; ++i) {
      uint64_t key = rng.Next64();
      if (clustered) key = (rng.NextBounded(3) << 61) | (key >> 24);
      pool.push_back(key);
    }
    pool = SortedDistinct(pool);
    const uint64_t train_share = rng.NextBounded(101);
    const uint64_t cand_share = rng.NextBounded(101);
    const uint64_t max_copies = 1 + rng.NextBounded(3);
    std::vector<uint64_t> train_keys, cand_keys;
    for (uint64_t key : pool) {
      if (rng.NextBounded(100) < train_share) train_keys.push_back(key);
      if (rng.NextBounded(100) < cand_share) cand_keys.push_back(key);
    }
    std::vector<size_t> copies;
    for (size_t r = 0; r < train_keys.size(); ++r) {
      copies.push_back(1 + rng.NextBounded(max_copies));
    }
    const Sketch train = OracleTrain(
        train_keys, [&copies](size_t r) { return copies[r]; }, rng);
    ExpectKernelMatchesOracle(train, OracleCandidate(cand_keys, rng),
                              "pair " + std::to_string(pair));
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------- Value-word gather ---

// A candidate over keys 1..values.size(), entry j holding values[j].
Sketch WordCandidate(const std::vector<Value>& values) {
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  for (size_t j = 0; j < values.size(); ++j) {
    cand.entries.push_back(SketchEntry{j + 1, 0.1, values[j]});
  }
  return cand;
}

// A train over keys [first, last], two entries each, numeric or labelled.
Sketch WordTrain(uint64_t first, uint64_t last, bool numeric) {
  Sketch train;
  train.side = SketchSide::kTrain;
  for (uint64_t key = first; key <= last; ++key) {
    for (int copy = 0; copy < 2; ++copy) {
      train.entries.push_back(SketchEntry{
          key, 0.1 * copy,
          numeric ? Value(static_cast<double>(key % 5) + 0.25 * copy)
                  : Value("y" + std::to_string((key + copy) % 3))});
    }
  }
  return train;
}

// The kernel over SketchIndex's stored columns — the index path, beside
// ScoreCandidateSketch's per-call columns — against the Value reference.
void ExpectIndexMatchesOracle(const Sketch& train, const Sketch& cand,
                              const std::string& where) {
  JoinMIConfig config;
  config.min_join_size = 1;
  SketchIndex index(config);
  ASSERT_TRUE(index.AddSketch({"cand", "K", "V"}, cand).ok()) << where;
  auto query = JoinMIQuery::FromTrainSketch(train, config);
  ASSERT_TRUE(query.ok()) << where << ": " << query.status();
  auto evaluation = index.EvaluateAll(*query, 1);
  ASSERT_TRUE(evaluation.ok()) << where;
  auto joined = *JoinSketches(train, cand);
  auto reference = ScoreSketchJoinSample(joined.sample, joined.join_size,
                                         std::nullopt, {}, 1);
  ASSERT_EQ(evaluation->estimates[0].has_value(), reference.ok()) << where;
  if (!reference.ok()) return;
  EXPECT_EQ(Bits(evaluation->estimates[0]->mi), Bits(reference->mi)) << where;
  EXPECT_EQ(evaluation->estimates[0]->estimator, reference->estimator)
      << where;
  EXPECT_EQ(evaluation->estimates[0]->sample_size, joined.join_size) << where;
}

const std::vector<std::optional<MIEstimatorKind>> kEveryEstimator = {
    std::nullopt,
    MIEstimatorKind::kMLE,
    MIEstimatorKind::kMillerMadow,
    MIEstimatorKind::kLaplace,
    MIEstimatorKind::kKSG,
    MIEstimatorKind::kMixedKSG,
    MIEstimatorKind::kDCKSG};

TEST(MergeKernelTest, NumericWordsDeriveTheValueHash) {
  // Int64s, doubles and both zeros: the word holds the double, and the
  // hash derived from it is Value::Hash(), so -0.0 and +0.0 (and 3 and
  // 3.0) hash alike while their numbers keep their bits.
  std::vector<Value> values;
  for (int64_t i = 0; i < 24; ++i) {
    values.push_back(i % 3 == 0   ? Value(i % 5)
                     : i % 3 == 1 ? Value(static_cast<double>(i % 5))
                                  : Value(0.5 * static_cast<double>(i % 4)));
  }
  values[4] = Value(-0.0);
  values[5] = Value(0.0);
  values[6] = Value(int64_t{0});
  values[7] = Value(-0.0);
  const Sketch cand = WordCandidate(values);
  std::vector<uint64_t> words = {77};  // appended after what is there
  const ValueTypes types = AppendValueWords(cand, &words);
  EXPECT_TRUE(types.all_numeric);
  ASSERT_EQ(words.size(), values.size() + 1);
  EXPECT_EQ(words[0], 77u);
  for (size_t j = 0; j < values.size(); ++j) {
    double number;
    std::memcpy(&number, &words[j + 1], sizeof(number));
    EXPECT_EQ(Bits(number), Bits(values[j].NumericOr(0.0))) << j;
    EXPECT_EQ(NumericValueHash(number), values[j].Hash()) << j;
  }
  EXPECT_EQ(NumericValueHash(-0.0), NumericValueHash(0.0));
  for (bool numeric_train : {true, false}) {
    const Sketch train = WordTrain(2, 22, numeric_train);
    const std::string where = numeric_train ? "numeric train" : "label train";
    ExpectKernelMatchesOracle(train, cand, where, kEveryEstimator);
    ExpectIndexMatchesOracle(train, cand, where);
  }
}

TEST(MergeKernelTest, StringWordsAreValueHashes) {
  std::vector<Value> values;
  for (int i = 0; i < 24; ++i) values.push_back(Value("v" + std::to_string(i % 4)));
  const Sketch cand = WordCandidate(values);
  std::vector<uint64_t> words;
  const ValueTypes types = AppendValueWords(cand, &words);
  EXPECT_FALSE(types.any_numeric);
  EXPECT_TRUE(types.homogeneous());
  ASSERT_EQ(words.size(), values.size());
  for (size_t j = 0; j < values.size(); ++j) {
    EXPECT_EQ(words[j], values[j].Hash()) << j;
  }
  for (bool numeric_train : {true, false}) {
    const Sketch train = WordTrain(3, 20, numeric_train);
    const std::string where = numeric_train ? "numeric train" : "label train";
    ExpectKernelMatchesOracle(train, cand, where, kEveryEstimator);
    ExpectIndexMatchesOracle(train, cand, where);
  }
}

TEST(MergeKernelTest, MixedCandidateReadsItsEntries) {
  // Numbers on keys 1..20, labels from 21 (and one null at 27): the words
  // are hashes, and the sample's types come from the matched values — all
  // numeric for a query joining keys 2..18, mixed for one joining 12..26,
  // null-bearing for one reaching 27.
  std::vector<Value> values;
  for (int i = 1; i <= 30; ++i) {
    values.push_back(i <= 20    ? Value(static_cast<double>(i % 6))
                     : i == 27  ? Value()
                                : Value("label" + std::to_string(i % 3)));
  }
  const Sketch cand = WordCandidate(values);
  std::vector<uint64_t> words;
  const ValueTypes types = AppendValueWords(cand, &words);
  EXPECT_FALSE(types.homogeneous());
  for (size_t j = 0; j < values.size(); ++j) {
    EXPECT_EQ(words[j], values[j].Hash()) << j;
  }
  for (const auto& [first, last] : {std::pair<uint64_t, uint64_t>{2, 18},
                                    {12, 26},
                                    {20, 30}}) {
    for (bool numeric_train : {true, false}) {
      const Sketch train = WordTrain(first, last, numeric_train);
      const std::string where = std::to_string(first) + ".." +
                                std::to_string(last) +
                                (numeric_train ? " numeric" : " label");
      ExpectKernelMatchesOracle(train, cand, where, kEveryEstimator);
      ExpectIndexMatchesOracle(train, cand, where);
    }
  }
  // The all-numeric subset scores as numeric x numeric.
  MergeJoinScore numeric =
      ScoreThroughKernel(WordTrain(2, 18, true), cand, std::nullopt, 1);
  ASSERT_TRUE(numeric.scored.has_value() && numeric.scored->ok());
  EXPECT_EQ((*numeric.scored)->estimator, MIEstimatorKind::kMixedKSG);
  MergeJoinScore mixed =
      ScoreThroughKernel(WordTrain(12, 26, true), cand, std::nullopt, 1);
  ASSERT_TRUE(mixed.scored.has_value() && mixed.scored->ok());
  EXPECT_EQ((*mixed.scored)->estimator, MIEstimatorKind::kDCKSG);
}

TEST(MergeKernelTest, EmptyCandidateWithNoMinimum) {
  // No entry, no word; with min_join_size 0 the empty join reaches the
  // estimators and fails as the Value path does, for every estimator.
  const Sketch cand = WordCandidate({});
  std::vector<uint64_t> words;
  const ValueTypes types = AppendValueWords(cand, &words);
  EXPECT_TRUE(words.empty());
  EXPECT_TRUE(types.all_numeric);  // vacuously
  for (bool numeric_train : {true, false}) {
    ExpectKernelMatchesOracle(WordTrain(1, 9, numeric_train), cand,
                              "empty candidate", kEveryEstimator,
                              /*min_join_size=*/0);
  }
}

TEST(SketchJoinTest, MatchedKeysDistinctEvenForUnsortedTrainSketch) {
  // JoinSketches (unlike the scoring kernel) accepts train sketches that
  // violate the sorted-by-key-hash invariant, e.g. hand-built ones; the
  // distinct-key count must not rely on equal hashes being adjacent.
  Sketch train;
  train.side = SketchSide::kTrain;
  train.entries.push_back(SketchEntry{7, 0.1, Value(int64_t{1})});
  train.entries.push_back(SketchEntry{3, 0.2, Value(int64_t{2})});
  train.entries.push_back(SketchEntry{7, 0.3, Value(int64_t{3})});
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{3, 0.1, Value(int64_t{30})});
  cand.entries.push_back(SketchEntry{7, 0.2, Value(int64_t{70})});
  auto joined = JoinSketches(train, cand);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->join_size, 3u);
  EXPECT_EQ(joined->matched_keys, 2u);
}

// ----------------------------------------------------- Builder oracles ---

// The builders hash keys through typed column access and count them in a
// KeyCoder; the tests below hold them to the Value-based two-pass build
// they replaced.

// Every `period`-th row is null in the key column and every
// (period+1)-th in the value column, so both kinds of skipped row occur.
std::vector<bool> NullEvery(size_t rows, size_t period, size_t phase) {
  std::vector<bool> validity(rows, true);
  for (size_t row = phase; row < rows; row += period) validity[row] = false;
  return validity;
}

TEST(KeyHashTest, TypedHashEqualsValueHash) {
  const std::vector<bool> validity = {true, false, true, true, true,
                                      true, true};
  auto strings = Column::MakeString({"", "null", "k1", "a longer key",
                                     "\xc3\xa9t\xc3\xa9", "k1", "0"},
                                    validity);
  auto ints = Column::MakeInt64(
      {0, 7, -1, 3, int64_t{1} << 40, -(int64_t{1} << 52), 42}, validity);
  // Integral doubles must hash like their int64; -0.0 like 0.
  auto doubles = Column::MakeDouble({-0.0, 7.0, -1.0, 3.0, 0.5, 1e300,
                                     std::nan("")},
                                    validity);
  // Each valid row's hash_at (0 at null rows).
  auto typed_hashes = [](const Column& column, uint32_t seed) {
    std::vector<uint64_t> hashes(column.size(), 0);
    WithKeyHasher(column, seed, [&](auto hash_at) {
      for (size_t row = 0; row < column.size(); ++row) {
        if (column.IsValid(row)) hashes[row] = hash_at(row);
      }
    });
    return hashes;
  };
  for (uint32_t seed : {0u, 17u}) {
    for (const auto& column : {strings, ints, doubles}) {
      const std::vector<uint64_t> hashes = typed_hashes(*column, seed);
      for (size_t row = 0; row < column->size(); ++row) {
        if (!column->IsValid(row)) continue;
        EXPECT_EQ(hashes[row], HashKey(column->GetValue(row), seed))
            << DataTypeToString(column->type()) << " row " << row;
      }
    }
    const std::vector<uint64_t> double_hashes = typed_hashes(*doubles, seed);
    const std::vector<uint64_t> int_hashes = typed_hashes(*ints, seed);
    EXPECT_EQ(double_hashes[0], int_hashes[0]);
    EXPECT_EQ(double_hashes[2], int_hashes[2]);
    EXPECT_EQ(double_hashes[3], int_hashes[3]);
  }
}

// The TUPSK train build as it was before the one-pass rewrite: one pass
// counting distinct keys in an unordered_set, a second numbering
// occurrences in an unordered_map, both hashing Value copies, and the KMV
// rule applied by sorting every offer.
Sketch TwoPassTupskTrain(const Column& keys, const Column& values,
                         const SketchOptions& options) {
  Sketch sketch;
  sketch.method = SketchMethod::kTupsk;
  sketch.side = SketchSide::kTrain;
  sketch.capacity = options.capacity;
  sketch.hash_seed = options.hash_seed;
  std::unordered_set<uint64_t> distinct;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!keys.IsValid(row) || !values.IsValid(row)) continue;
    ++sketch.source_rows;
    distinct.insert(HashKey(keys.GetValue(row), options.hash_seed));
  }
  sketch.source_distinct_keys = distinct.size();
  std::unordered_map<uint64_t, uint64_t> occurrence;
  std::vector<SketchEntry> offers;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!keys.IsValid(row) || !values.IsValid(row)) continue;
    const uint64_t key_hash = HashKey(keys.GetValue(row), options.hash_seed);
    const uint64_t j = ++occurrence[key_hash];
    offers.push_back(SketchEntry{key_hash, TupleUnitHash(key_hash, j),
                                 values.GetValue(row)});
  }
  sketch.entries = SortEveryOffer(std::move(offers), options.capacity);
  return sketch;
}

TEST(TupskTest, OnePassTrainEqualsTwoPassOracle) {
  // 9000 and 100k rows carry far more than KeyCoder::kMaxInitialKeys
  // distinct keys, so the coder grows mid-build (reading a count through a
  // pointer taken before Add would dangle there); keys repeat, so the
  // occurrence index j climbs past 1.
  for (size_t rows : {size_t{1}, size_t{9000}, size_t{100000}}) {
    Rng rng(rows);
    const size_t domain = std::max<size_t>(1, rows / 3);
    std::vector<std::string> string_keys;
    std::vector<int64_t> int_keys;
    std::vector<double> targets;
    for (size_t row = 0; row < rows; ++row) {
      const uint64_t k = rng.NextBounded(domain);
      string_keys.push_back("key" + std::to_string(k));
      int_keys.push_back(static_cast<int64_t>(k) - 50);
      targets.push_back(static_cast<double>(rng.NextBounded(1000)) / 8.0);
    }
    // Row 0 stays valid so the 1-row table is not empty.
    const std::vector<bool> key_validity = NullEvery(rows, 7, 5);
    const std::vector<bool> value_validity = NullEvery(rows, 11, 3);
    auto values = Column::MakeDouble(targets, value_validity);
    for (const auto& keys :
         {Column::MakeString(string_keys, key_validity),
          Column::MakeInt64(int_keys, key_validity)}) {
      // Capacity `rows` keeps every row, so every row's j shows in the
      // sketch; it runs first, while the coder still has to grow.
      for (size_t capacity : {rows, size_t{64}}) {
        SketchOptions options = Options(capacity);
        options.hash_seed = 3;
        const Sketch oracle = TwoPassTupskTrain(*keys, *values, options);
        auto sketch = TupskBuilder(options).SketchTrain(*keys, *values);
        ASSERT_TRUE(sketch.ok()) << sketch.status();
        const std::string where = std::to_string(rows) + " rows, " +
                                  DataTypeToString(keys->type()) +
                                  " keys, capacity " +
                                  std::to_string(capacity);
        EXPECT_EQ(sketch->source_rows, oracle.source_rows) << where;
        EXPECT_EQ(sketch->source_distinct_keys, oracle.source_distinct_keys)
            << where;
        EXPECT_EQ(SerializeSketch(*sketch), SerializeSketch(oracle)) << where;
      }
    }
  }
}

// AggregateByKey as it was: an unordered_map from key hash to position.
std::vector<AggregatedKey> MapAggregateByKey(const Column& keys,
                                             const Column& values,
                                             AggKind agg, uint32_t seed) {
  std::vector<AggregatedKey> result;
  std::vector<AggregatorState> states;
  std::unordered_map<uint64_t, size_t> index;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!keys.IsValid(row) || !values.IsValid(row)) continue;
    const uint64_t h = HashKey(keys.GetValue(row), seed);
    auto [it, inserted] = index.emplace(h, result.size());
    if (inserted) {
      result.push_back(AggregatedKey{h, Value::Null(), 0});
      states.emplace_back(agg);
    }
    EXPECT_TRUE(states[it->second].Update(values.GetValue(row)).ok());
    ++result[it->second].frequency;
  }
  for (size_t i = 0; i < result.size(); ++i) {
    result[i].value = *states[i].Finish();
  }
  return result;
}

TEST(AggregateByKeyTest, CoderAggregationEqualsMapOracle) {
  Rng rng(77);
  const size_t rows = 12000;  // ~3000 distinct keys: the coder grows
  std::vector<std::string> keys;
  std::vector<int64_t> numbers;
  for (size_t row = 0; row < rows; ++row) {
    keys.push_back("k" + std::to_string(rng.NextBounded(3000)));
    numbers.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  auto key_column = Column::MakeString(keys, NullEvery(rows, 13, 2));
  auto value_column = Column::MakeInt64(numbers, NullEvery(rows, 9, 4));
  for (AggKind agg : {AggKind::kFirst, AggKind::kAvg, AggKind::kCount,
                      AggKind::kMode}) {
    const std::vector<AggregatedKey> oracle =
        MapAggregateByKey(*key_column, *value_column, agg, 5);
    auto aggregated = AggregateByKey(*key_column, *value_column, agg, 5);
    ASSERT_TRUE(aggregated.ok()) << aggregated.status();
    ASSERT_EQ(aggregated->size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ((*aggregated)[i].key_hash, oracle[i].key_hash) << i;
      EXPECT_EQ((*aggregated)[i].frequency, oracle[i].frequency) << i;
      EXPECT_EQ((*aggregated)[i].value, oracle[i].value) << i;
    }
  }
}

// Serialized train and candidate sketches of every method over one fixed
// table, keyed by strings, int64s and doubles (the same draws, a tenth of
// the keys null): the bytes the Value-based builders produced, as 64-bit
// digests. Any change in hashing, occurrence numbering, aggregation order
// or source counts changes a digest.
TEST_P(SketchMethodTest, SerializedSketchesMatchGoldenDigests) {
  const size_t rows = 6000;  // ~2000 distinct keys: the coder grows
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
  SketchOptions options = Options(256, 4242);
  options.hash_seed = 9;
  auto builder = MakeSketchBuilder(GetParam(), options);
  struct Golden {
    SketchMethod method;
    DataType key_type;
    uint64_t train;
    uint64_t candidate;
  };
  const Golden golden[] = {
      {SketchMethod::kTupsk, DataType::kString, 0x18f589b94396c2b0ULL,
       0x7a619143144a7039ULL},
      {SketchMethod::kLv2sk, DataType::kString, 0x15eed0b5db680c64ULL,
       0x3d95dbc8736ff0d6ULL},
      {SketchMethod::kPrisk, DataType::kString, 0x31c771c9b82e0e00ULL,
       0x65019d309252a8edULL},
      {SketchMethod::kIndsk, DataType::kString, 0x7b4fe7ec3b6be692ULL,
       0x8a7692d95d1620bcULL},
      {SketchMethod::kCsk, DataType::kString, 0x2fbcdbe48b1be2cdULL,
       0x6fdffe78387cf83aULL},
      {SketchMethod::kTupsk, DataType::kInt64, 0xb029886086f89600ULL,
       0x18c5dc9d7c1d8442ULL},
      {SketchMethod::kLv2sk, DataType::kInt64, 0x0635fb81216a91a8ULL,
       0xfecb96637b5125b3ULL},
      {SketchMethod::kPrisk, DataType::kInt64, 0x526aa4304edb4ba1ULL,
       0xb329aec88b8d8fb8ULL},
      {SketchMethod::kIndsk, DataType::kInt64, 0x6d272afab1e7212cULL,
       0xae9f76eb857b87e2ULL},
      {SketchMethod::kCsk, DataType::kInt64, 0xc5e915e389da029eULL,
       0x09aa8b3d7c8654a5ULL},
      {SketchMethod::kTupsk, DataType::kDouble, 0x07b7388c580cbde4ULL,
       0xaa167d54fa792c6dULL},
      {SketchMethod::kLv2sk, DataType::kDouble, 0x4c81fd367b378564ULL,
       0xe804f4264814d62cULL},
      {SketchMethod::kPrisk, DataType::kDouble, 0x719463b26493efcbULL,
       0x814cc59cf6451573ULL},
      {SketchMethod::kIndsk, DataType::kDouble, 0x70ed3a006ba5581aULL,
       0x03a07fbe6a54b2beULL},
      {SketchMethod::kCsk, DataType::kDouble, 0x926e06d085a1728bULL,
       0x639fdc5dd023dc18ULL},
  };
  size_t checked = 0;
  for (const std::shared_ptr<Column>& key_column : key_columns) {
    auto train = builder->SketchTrain(*key_column, *value_column);
    ASSERT_TRUE(train.ok()) << train.status();
    auto candidate =
        builder->SketchCandidate(*key_column, *value_column, AggKind::kAvg);
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    for (const Golden& g : golden) {
      if (g.method != GetParam() || g.key_type != key_column->type()) {
        continue;
      }
      ++checked;
      const std::string where = DataTypeToString(g.key_type);
      EXPECT_EQ(wire::Checksum64(SerializeSketch(*train)), g.train)
          << where << std::hex << " 0x"
          << wire::Checksum64(SerializeSketch(*train));
      EXPECT_EQ(wire::Checksum64(SerializeSketch(*candidate)), g.candidate)
          << where << std::hex << " 0x"
          << wire::Checksum64(SerializeSketch(*candidate));
    }
  }
  EXPECT_EQ(checked, 3u);

  // Edge shapes, string-keyed: fewer usable rows than capacity (a tenth
  // of the keys and a seventeenth of the values null); exactly 4 x
  // capacity rows, where the selection's provisional bound stays off, and
  // one row more, where it comes on; one key on every row, so j runs to
  // the row count; and string values (aggregated by mode). Digests from
  // the builds before the fused TUPSK pass and the prefiltered selection.
  struct EdgeTable {
    const char* name;
    size_t rows;
    size_t domain;  // distinct key draws
    bool string_values;
    bool nulls;
  };
  const EdgeTable edges[] = {
      {"fewer rows than capacity", 200, 150, false, true},
      {"4 x capacity rows", 1024, 400, false, false},
      {"4 x capacity + 1 rows", 1025, 400, false, false},
      {"one key", 3000, 1, false, false},
      {"string values", 6000, 2000, true, true},
  };
  struct EdgeGolden {
    SketchMethod method;
    uint64_t train[5];
    uint64_t candidate[5];
  };
  const EdgeGolden edge_golden[] = {
      {SketchMethod::kTupsk,
       {0x81454697fef2506dULL, 0xa8381282aa15fed9ULL, 0x8c3136a26c229ec6ULL,
        0x4736f8e6b8fccd27ULL, 0x9e4a9d2dee398672ULL},
       {0x8a96120c971ee90fULL, 0x1abc88942183d18aULL, 0xbde15816f6d59be2ULL,
        0x3d32986e0f992683ULL, 0x1a8a7a463cc3570bULL}},
      {SketchMethod::kLv2sk,
       {0x3bd5831fef109762ULL, 0x257c03afe71fe4e6ULL, 0x661f84f423f442d0ULL,
        0x1f25e5e6038f04c9ULL, 0x05edfa23fdb59afeULL},
       {0x5c76f6705af9885aULL, 0xf8d679819ac11406ULL, 0x479dd7b13f99b4d6ULL,
        0x758ed0cfc4389b16ULL, 0xe0953a9144d7620eULL}},
      {SketchMethod::kPrisk,
       {0x069cc422f352ed4eULL, 0x74b9d5507a0c2bfeULL, 0x9300d6c98d16f62bULL,
        0x731c9ee9d0faa8f6ULL, 0x3f03178934fe3c2cULL},
       {0x32e09e73ab6e8863ULL, 0x23e580b3659e1339ULL, 0xc2ebfac0de3e4269ULL,
        0x117683ca91a531abULL, 0x0c847a19f4ebd529ULL}},
      {SketchMethod::kIndsk,
       {0x4acd03ad01033163ULL, 0x2eff9b545ee2c4ecULL, 0x4246ee92a092583bULL,
        0x147f56ac01033289ULL, 0x17db47527e206a1bULL},
       {0xf31ed8df037a4d16ULL, 0x49e81b3be8e4b2a1ULL, 0x0d03f4bf8e446d17ULL,
        0x63c2e4db9956486eULL, 0xfda2ee1d968ec595ULL}},
      {SketchMethod::kCsk,
       {0xd225ae2f2e2db050ULL, 0x2757e712b840fd1fULL, 0x7fcb6631c32c71a6ULL,
        0x7db08ddfe3c1faabULL, 0x5a106c880dd987f3ULL},
       {0xe86587c7d4613945ULL, 0xb5481ad08d4e3a5cULL, 0x2a102f11fa4455ddULL,
        0xf2b6abbb3c693e26ULL, 0x33fbf09c8429fef4ULL}},
  };
  const EdgeGolden* want = nullptr;
  for (const EdgeGolden& g : edge_golden) {
    if (g.method == GetParam()) want = &g;
  }
  ASSERT_NE(want, nullptr);
  for (size_t e = 0; e < std::size(edges); ++e) {
    const EdgeTable& edge = edges[e];
    Rng edge_rng(3000 + e);
    std::vector<std::string> edge_keys;
    std::vector<double> edge_numbers;
    std::vector<std::string> edge_words;
    for (size_t row = 0; row < edge.rows; ++row) {
      edge_keys.push_back("e" +
                          std::to_string(edge_rng.NextBounded(edge.domain)));
      const uint64_t draw = edge_rng.NextBounded(300);
      edge_numbers.push_back(static_cast<double>(draw) / 4.0);
      edge_words.push_back("w" + std::to_string(draw % 40));
    }
    const std::vector<bool> edge_key_validity =
        edge.nulls ? NullEvery(edge.rows, 10, 1) : std::vector<bool>{};
    const std::vector<bool> edge_value_validity =
        edge.nulls ? NullEvery(edge.rows, 17, 6) : std::vector<bool>{};
    auto edge_key_column = Column::MakeString(edge_keys, edge_key_validity);
    auto edge_value_column =
        edge.string_values
            ? Column::MakeString(edge_words, edge_value_validity)
            : Column::MakeDouble(edge_numbers, edge_value_validity);
    auto train = builder->SketchTrain(*edge_key_column, *edge_value_column);
    ASSERT_TRUE(train.ok()) << edge.name << ": " << train.status();
    auto candidate = builder->SketchCandidate(
        *edge_key_column, *edge_value_column,
        edge.string_values ? AggKind::kMode : AggKind::kAvg);
    ASSERT_TRUE(candidate.ok()) << edge.name << ": " << candidate.status();
    const uint64_t train_digest = wire::Checksum64(SerializeSketch(*train));
    const uint64_t candidate_digest =
        wire::Checksum64(SerializeSketch(*candidate));
    EXPECT_EQ(train_digest, want->train[e])
        << edge.name << " train" << std::hex << " 0x" << train_digest;
    EXPECT_EQ(candidate_digest, want->candidate[e])
        << edge.name << " candidate" << std::hex << " 0x"
        << candidate_digest;
  }
}

}  // namespace
}  // namespace joinmi
