// Allocation regression tests for MI scoring. Once a thread is warm,
// SketchIndex::EvaluateAll must make the same number of heap allocations
// whether 8 or 32 candidates reach an estimator — the probe, the typed
// gather and every estimator run in reused thread-local scratch, so only
// the per-query outcome vectors allocate. The same holds at 4 threads, for
// an index and for a 4-shard fan-out: the shared pool's workers keep their
// scratch warm, and a ParallelFor call allocates nothing per index. And an
// estimate on a sample too large for that scratch (a materialized join),
// a sketch join too large for the kernel's scratch, or a sketch of a
// column too large for the reused key coder (an index build sketching on
// the pool), must leave no heap behind — on the caller and on the pool's
// workers.
//
// Every heap allocation in this binary bumps one counter and the live-byte
// total (a replaced global operator new), which catches allocations hidden
// inside containers that counting at call sites would miss.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/discovery/repository.h"
#include "src/discovery/search.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/mi/estimator.h"
#include "src/mi/estimator_internal.h"
#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"
#include "src/table/table.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace joinmi {
namespace {

// The largest sample the estimator scores by brute force on this CPU (none
// for the plug-in family, which searches no neighbours).
size_t BruteForceMaxPoints(MIEstimatorKind kind) {
  const internal::BruteForceKernel& kernel =
      internal::DispatchedBruteForceKernel();
  switch (kind) {
    case MIEstimatorKind::kKSG:
      return kernel.ksg_max_points;
    case MIEstimatorKind::kMixedKSG:
      return kernel.mixed_ksg_max_points;
    case MIEstimatorKind::kDCKSG:
      return kernel.dc_ksg_max_points;
    default:
      return 0;
  }
}

constexpr size_t kKeys = 400;

std::string Key(size_t i) { return "key-" + std::to_string(i); }

// A query table over every key, its target numeric or categorical.
JoinMIQuery MakeQuery(bool numeric_target, const JoinMIConfig& config) {
  std::vector<std::string> keys;
  std::vector<int64_t> numbers;
  std::vector<std::string> labels;
  for (size_t row = 0; row < 4 * kKeys; ++row) {
    const size_t k = (row * 7919) % kKeys;
    keys.push_back(Key(k));
    numbers.push_back(static_cast<int64_t>(k % 13 + row % 3));
    labels.push_back("y" + std::to_string(k % 5));
  }
  auto table = *Table::FromColumns(
      {{"K", Column::MakeString(keys)},
       {"Y", numeric_target ? Column::MakeInt64(numbers)
                            : Column::MakeString(labels)}});
  return *JoinMIQuery::Create(*table, "K", "Y", config);
}

// Candidate c covers a prefix of the key domain whose length varies with
// c, so at sketch capacity 1024 joins land both below and above each
// KSG-family estimator's brute-force cutoff; even
// candidates carry numbers, odd ones labels, so with either query target
// two estimators run (MixedKSG and DC-KSG, or DC-KSG and MLE).
SketchIndex MakeIndex(size_t num_candidates, const JoinMIConfig& config) {
  SketchIndex index(config);
  for (size_t c = 0; c < num_candidates; ++c) {
    const size_t covered = 40 + (c * 37) % (kKeys - 40);
    std::vector<std::string> keys;
    std::vector<double> numbers;
    std::vector<std::string> labels;
    for (size_t k = 0; k < covered; ++k) {
      keys.push_back(Key(k));
      numbers.push_back(static_cast<double>((k * (c + 3)) % 17) + 0.5 * c);
      labels.push_back("z" + std::to_string((k + c) % 6));
    }
    const std::string name = "t" + std::to_string(c);
    auto table = *Table::FromColumns(
        {{"K", Column::MakeString(keys)},
         {"Z", c % 2 == 0 ? Column::MakeDouble(numbers)
                          : Column::MakeString(labels)}});
    EXPECT_TRUE(
        index.AddCandidate(*table, ColumnPairRef{name, "K", "Z"}).ok());
  }
  return index;
}

uint64_t AllocationsOf(const SketchIndex& index, const JoinMIQuery& query) {
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  auto evaluation = index.EvaluateAll(query, 1);
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_TRUE(evaluation.ok()) << evaluation.status();
  // Every candidate joined and reached an estimator.
  EXPECT_EQ(evaluation->num_evaluated, index.size());
  return after - before;
}

TEST(ScoringAllocationTest, EvaluateAllAllocationsDoNotGrowWithCandidates) {
  JoinMIConfig config;
  config.aggregation = AggKind::kFirst;  // label candidates cannot average
  config.min_join_size = 8;
  // Joins up to ~1000 pairs, past every estimator's brute-force cutoff.
  config.sketch_capacity = 1024;
  const SketchIndex small = MakeIndex(8, config);
  const SketchIndex large = MakeIndex(32, config);
  for (bool numeric_target : {true, false}) {
    const JoinMIQuery query = MakeQuery(numeric_target, config);
    // Each KSG-family estimator's samples straddle its brute-force cutoff,
    // so both neighbour searches are on the path being counted.
    auto check = large.EvaluateAll(query, 1);
    ASSERT_TRUE(check.ok()) << check.status();
    std::map<MIEstimatorKind, std::pair<bool, bool>> below_above;
    for (const auto& estimate : check->estimates) {
      ASSERT_TRUE(estimate.has_value());
      const size_t cutoff = BruteForceMaxPoints(estimate->estimator);
      if (cutoff == 0) continue;
      std::pair<bool, bool>& seen = below_above[estimate->estimator];
      seen.first = seen.first || estimate->sample_size <= cutoff;
      seen.second = seen.second || estimate->sample_size > cutoff;
    }
    EXPECT_FALSE(below_above.empty());
    for (const auto& [kind, seen] : below_above) {
      EXPECT_TRUE(seen.first && seen.second) << MIEstimatorKindToString(kind);
    }

    // Warm-up: thread-local scratch grows to the largest sample once.
    AllocationsOf(large, query);
    AllocationsOf(small, query);
    const uint64_t small_allocs = AllocationsOf(small, query);
    const uint64_t large_allocs = AllocationsOf(large, query);
    EXPECT_EQ(small_allocs, large_allocs)
        << (numeric_target ? "numeric" : "categorical") << " target";
  }
}

// Runs `warm()` once on every thread that can take part in a shared-pool
// fan-out: each pool worker and the caller hold one index until all have
// arrived, so no thread runs two and every one runs `warm()` itself.
template <typename Warm>
void OnEveryPoolThread(Warm&& warm) {
  WorkSharingPool& pool = WorkSharingPool::Shared();
  const size_t participants = pool.num_threads() + 1;
  std::atomic<size_t> arrived{0};
  pool.ParallelFor(participants, participants, [&](size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < participants) std::this_thread::yield();
    warm();
  });
}

// Heap allocations of one call, once `warm_each_thread()` has run on every
// pool thread and 20 earlier calls have warmed the caller and the shared
// pool's workers. Which workers help a call is up to the pool, so the 20
// calls alone may leave a worker that first scores a candidate inside the
// counted call.
template <typename WarmEachThread, typename Call>
uint64_t WarmAllocationsOf(WarmEachThread&& warm_each_thread, Call&& call) {
  OnEveryPoolThread(warm_each_thread);
  for (int round = 0; round < 20; ++round) call();
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  call();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

TEST(ScoringAllocationTest, FanOutAllocationsDoNotGrowWithCandidatesAtFourThreads) {
  JoinMIConfig config;
  config.aggregation = AggKind::kFirst;
  config.min_join_size = 8;
  const JoinMIQuery query = MakeQuery(/*numeric_target=*/true, config);
  uint64_t index_allocs[2];
  uint64_t sharded_allocs[2];
  const size_t sizes[2] = {64, 256};
  for (int i = 0; i < 2; ++i) {
    const SketchIndex index = MakeIndex(sizes[i], config);
    auto evaluate_inline = [&] {
      EXPECT_TRUE(index.EvaluateAll(query, 1).ok());
    };
    index_allocs[i] = WarmAllocationsOf(evaluate_inline, [&] {
      auto evaluation = index.EvaluateAll(query, 4);
      ASSERT_TRUE(evaluation.ok()) << evaluation.status();
      // Every candidate joined and reached an estimator.
      ASSERT_EQ(evaluation->num_evaluated, index.size());
    });

    const std::string dir = testing::TempDir() + "/joinmi_alloc_shards_" +
                            std::to_string(sizes[i]);
    std::filesystem::remove_all(dir);
    auto manifest =
        BuildShards(index, 4, ShardPartitionPolicy::kRoundRobin, dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    auto sharded = ShardedSketchIndex::Load(*manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    auto search_inline = [&] {
      EXPECT_TRUE(sharded->Search(query, 10, 1).ok());
    };
    sharded_allocs[i] = WarmAllocationsOf(search_inline, [&] {
      auto result = sharded->Search(query, 10, 4);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(result->num_evaluated, index.size());
    });
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(index_allocs[0], index_allocs[1]);
  EXPECT_EQ(sharded_allocs[0], sharded_allocs[1]);
}

// n paired observations: x numeric with repeats, y its noisy copy, and
// the same sample with x as labels (for DC-KSG and the plug-in family).
PairedSample MakeSample(size_t n, bool label_x) {
  Rng rng(7);
  PairedSample sample;
  for (size_t i = 0; i < n; ++i) {
    const int64_t x = static_cast<int64_t>(rng.NextBounded(50));
    sample.x.push_back(label_x ? Value("x" + std::to_string(x)) : Value(x));
    sample.y.push_back(Value(static_cast<double>(x) + rng.Gaussian()));
  }
  return sample;
}

TEST(ScoringAllocationTest, LargeSampleLeavesNoScratchBehind) {
  const size_t large_n = 4 * internal::kMaxRetainedScratchPoints;
  for (MIEstimatorKind kind :
       {MIEstimatorKind::kMLE, MIEstimatorKind::kMillerMadow,
        MIEstimatorKind::kLaplace, MIEstimatorKind::kKSG,
        MIEstimatorKind::kMixedKSG, MIEstimatorKind::kDCKSG}) {
    const bool label_x = kind == MIEstimatorKind::kDCKSG;
    const PairedSample small = MakeSample(200, label_x);
    const PairedSample large = MakeSample(large_n, label_x);
    // Warm-up: the thread keeps scratch for small samples only.
    ASSERT_TRUE(EstimateMI(kind, small).ok());
    const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    auto estimate = EstimateMI(kind, large);
    const int64_t after = g_live_bytes.load(std::memory_order_relaxed);
    ASSERT_TRUE(estimate.ok()) << estimate.status();
    EXPECT_EQ(after, before) << MIEstimatorKindToString(kind);
  }
}

// `rows` rows with one distinct string key each ("k<first_key>",
// "k<first_key + 1>", ...) and a numeric value.
std::shared_ptr<Table> DistinctKeyTable(size_t rows, size_t first_key) {
  std::vector<std::string> keys(rows);
  std::vector<double> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = "k" + std::to_string(first_key + i);
    values[i] = static_cast<double>((i * 7919) % 1000);
  }
  return *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                              {"Z", Column::MakeDouble(std::move(values))}});
}

// Scores a sketch join far larger than the retained scratch (and its
// match buffer), on the caller through JoinMIQuery::Estimate and on every
// pool thread through a 4-thread EvaluateAll: neither may leave heap
// behind once its result is gone.
TEST(ScoringAllocationTest, LargeSketchJoinLeavesNoScratchBehind) {
  constexpr size_t kLargeJoin = 20000;
  static_assert(kLargeJoin > internal::kMaxRetainedScratchPoints);
  JoinMIConfig config;
  config.estimator = MIEstimatorKind::kMLE;
  config.sketch_capacity = kLargeJoin;
  const std::shared_ptr<Table> small = DistinctKeyTable(200, 0);
  const std::shared_ptr<Table> large = DistinctKeyTable(kLargeJoin, 0);
  const JoinMIQuery small_query =
      *JoinMIQuery::Create(*small, "K", "Z", config);
  const JoinMIQuery large_query =
      *JoinMIQuery::Create(*large, "K", "Z", config);
  const Sketch small_candidate =
      *small_query.SketchCandidate(*small, "K", "Z");
  const Sketch large_candidate =
      *large_query.SketchCandidate(*large, "K", "Z");
  ASSERT_EQ(large_query.train_sketch().size(), kLargeJoin);
  ASSERT_EQ(large_candidate.size(), kLargeJoin);
  // Four strips of fully matching candidates, one per thread.
  constexpr size_t kCopies = 4 * 8;
  SketchIndex small_index(config);
  SketchIndex large_index(config);
  for (size_t c = 0; c < kCopies; ++c) {
    const ColumnPairRef ref{"t" + std::to_string(c), "K", "Z"};
    ASSERT_TRUE(small_index.AddSketch(ref, small_candidate).ok());
    ASSERT_TRUE(large_index.AddSketch(ref, large_candidate).ok());
  }
  // Warm-up on every thread that can take part: each keeps the scratch of
  // small joins.
  OnEveryPoolThread([&] {
    EXPECT_TRUE(small_query.Estimate(small_candidate).ok());
    EXPECT_TRUE(small_index.EvaluateAll(small_query, 1).ok());
  });

  int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  {
    auto estimate = large_query.Estimate(large_candidate);
    ASSERT_TRUE(estimate.ok()) << estimate.status();
    EXPECT_EQ(estimate->sample_size, kLargeJoin);
  }
  EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), before)
      << "caller";

  before = g_live_bytes.load(std::memory_order_relaxed);
  {
    auto evaluation = large_index.EvaluateAll(large_query, 4);
    ASSERT_TRUE(evaluation.ok()) << evaluation.status();
    ASSERT_EQ(evaluation->num_evaluated, kCopies);
    EXPECT_EQ(evaluation->estimates[0]->sample_size, kLargeJoin);
  }
  EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), before)
      << "4-thread EvaluateAll";
}

constexpr size_t kLargeKeyRows = 200000;
static_assert(kLargeKeyRows > internal::kMaxRetainedCoderRows);

TEST(ScoringAllocationTest, LargeKeyColumnLeavesNoCoderBehind) {
  const std::shared_ptr<Table> small = DistinctKeyTable(1000, 0);
  const std::shared_ptr<Table> large = DistinctKeyTable(kLargeKeyRows, 0);
  const Column& small_keys = **small->GetColumn("K");
  const Column& small_values = **small->GetColumn("Z");
  const Column& large_keys = **large->GetColumn("K");
  const Column& large_values = **large->GetColumn("Z");
  for (SketchMethod method :
       {SketchMethod::kTupsk, SketchMethod::kLv2sk, SketchMethod::kPrisk,
        SketchMethod::kIndsk, SketchMethod::kCsk}) {
    const std::unique_ptr<SketchBuilder> builder =
        MakeSketchBuilder(method, SketchOptions{});
    // Warm-up: the thread keeps a coder for small columns only.
    ASSERT_TRUE(builder->SketchTrain(small_keys, small_values).ok());
    ASSERT_TRUE(
        builder->SketchCandidate(small_keys, small_values, AggKind::kAvg)
            .ok());
    const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    {
      auto train = builder->SketchTrain(large_keys, large_values);
      ASSERT_TRUE(train.ok()) << train.status();
      auto candidate =
          builder->SketchCandidate(large_keys, large_values, AggKind::kAvg);
      ASSERT_TRUE(candidate.ok()) << candidate.status();
    }
    EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), before)
        << SketchMethodToString(method);
  }
}

TEST(ScoringAllocationTest, PooledIndexBuildOfLargeTablesLeavesNoCoderBehind) {
  // IndexRepository sketches every candidate on whichever pool thread
  // claims it, and the search sketches the query on the caller. Candidate
  // keys are disjoint from the query's, so no estimator runs: the search
  // probes and skips.
  constexpr size_t kCandidates = 4;
  auto make_repository = [](size_t rows) {
    auto repository = std::make_unique<TableRepository>();
    for (size_t c = 0; c < kCandidates; ++c) {
      const size_t first_key = 1000000000 + c * rows;
      EXPECT_TRUE(repository
                      ->AddTable("t" + std::to_string(c),
                                 DistinctKeyTable(rows, first_key))
                      .ok());
    }
    return repository;
  };
  const std::shared_ptr<Table> small_query = DistinctKeyTable(1000, 0);
  const std::shared_ptr<Table> large_query = DistinctKeyTable(kLargeKeyRows, 0);
  const auto small_repository = make_repository(1000);
  const auto large_repository = make_repository(kLargeKeyRows);
  const SearchSpec spec{"K", "Z"};
  const JoinMIConfig config;
  // Warm-up on every thread that can take part: each sketches the small
  // query and every small candidate itself and searches inline, so each
  // keeps its small-column coder and scratch before the measurement.
  OnEveryPoolThread([&] {
    SketchIndex index(config);
    for (const ColumnPairRef& ref : small_repository->ExtractColumnPairs()) {
      EXPECT_TRUE(
          index.AddCandidate(**small_repository->GetTable(ref.table_name), ref)
              .ok());
    }
    EXPECT_TRUE(TopKJoinMISearch(*small_query, spec, index, 5, 1).ok());
  });
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  {
    SketchIndex index(config);
    auto indexed = index.IndexRepository(*large_repository);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    EXPECT_EQ(*indexed, kCandidates);
    auto result = TopKJoinMISearch(*large_query, spec, index, 5, 4);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_candidates, kCandidates);
    EXPECT_EQ(result->num_skipped, kCandidates);
  }
  EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace joinmi
