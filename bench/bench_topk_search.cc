// Throughput benchmark for the top-k discovery engine.
//
// Part 1 compares two ways of ranking every candidate column pair of a
// synthetic repository against one base table:
//
//   naive serial    one SketchJoinMI call per candidate — rebuilds the base
//                   table's sketch for every candidate (the pre-engine API);
//   engine x1       SketchIndex::IndexRepository (every candidate sketched
//                   once, on the shared pool) plus one TopKJoinMISearch
//                   over the index with 1 thread;
//   engine xT       the same with a T-thread search (default 4).
//
// The 1-thread and T-thread rankings are cross-checked for equality
// before any number is printed. There are no parts 2-6: the later parts
// keep their numbers, which their metric names carry. Shard fan-out and
// network costs are measured by discovery_bench's layer probes.
//
// Part 7 is paged shard storage: the same shard layout built as "JMPS"
// paged files and served through PagedShardClient buffer pools of several
// sizes (starving, comfortable, everything-resident) against the
// whole-file in-memory baseline. Two costs are on trial: cold start
// (whole-file load deserializes every candidate, paged open reads header
// + directory only) and steady-state query latency as a function of the
// pool budget. Pool counters prove the starving configuration really
// evicted mid-query; rankings are cross-checked against the in-memory
// path before any number is printed.
//
// Part 9 races the batched scoring hot path against a verbatim replica of
// the pre-flattening per-candidate path (unordered_map probes, per-join
// sample/set builds) on an amortized-probe workload where almost nothing
// joins — reporting per-query cost, the batched speedup, allocations per
// query via a global operator-new counter, the no-join cost per candidate
// of the scoring kernel's probe (against JoinSketches) and of the index's
// key postings, MixedKSG's brute force against its tree oracle at n = 40,
// and the heap bytes the index holds per candidate. The batched and probe
// speedups are medians over rounds that alternate the two legs of each
// ratio, every timed region repeating its pass to at least 10 ms.
//
// Part 8 is the front tier: Router::Open over the simulated open-data
// repository (opendata_sim), hammered with a skewed-popularity query
// stream — a few hot query tables dominate, Zipf-style, exactly the shape
// that makes a result cache pay. Cache-hit latency is measured against a
// cache-disabled router on the same stream (every answer cross-checked
// bit-identical first), and an admission sub-drill saturates a
// max_pending=1 router until the gate sheds with structured kOverloaded +
// retry-after rejections. The repeat-query speedup is a hard gate: the
// bench aborts unless cached repeats run at least 5x faster.
//
// Part 10 is the mutable index: a router serves a deployment while an
// ingest coordinator appends delta batches, publishes a new manifest
// generation, and the router reloads mid-stream — per-query latency during
// that window is compared against steady state, and the post-reload
// ranking is cross-checked bit-identical to the full index before any
// number prints. A second drill measures the delta-overlay read cost as a
// function of delta size (0%, 25%, 50% of candidates living in JMDS
// sidecars instead of the base files).
//
// `--smoke` shrinks every dimension (tiny tables, capacity 64, one query
// batch) so the whole binary runs in a few seconds, most of them the
// 10 ms timed regions of the gated ratios; CI runs that mode as a ctest to
// keep this harness from rotting.
//
// `--json PATH` additionally writes the headline numbers as a flat JSON
// object — the machine-readable sibling of the printed report, for
// checked-in baselines and regression tracking.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <thread>

#include <atomic>
#include <cmath>

#include <new>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/admission.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/join_mi.h"
#include "src/discovery/opendata_sim.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/router.h"
#include "src/discovery/search.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"
#include "src/ingest/generation.h"
#include "src/mi/estimator_internal.h"
#include "src/table/table.h"

// Global-new interposition for part 9's allocations-per-query counter:
// every heap allocation in this binary bumps one relaxed atomic. This is
// the only honest way to measure "the hot path no longer allocates" —
// sampling profilers miss small allocs, and counting at call sites misses
// the ones hiding inside containers.
static std::atomic<uint64_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace joinmi {
namespace bench {
namespace {

struct BenchParams {
  size_t base_rows = 120000;
  size_t distinct_keys = 4000;
  size_t candidate_tables = 48;
  size_t candidate_rows = 4000;
  size_t top_k = 10;
  size_t sketch_capacity = 512;
  size_t min_join_size = 32;
};

BenchParams SmokeParams() {
  BenchParams params;
  params.base_rows = 3000;
  params.distinct_keys = 200;
  params.candidate_tables = 6;
  params.candidate_rows = 500;
  params.sketch_capacity = 128;
  params.min_join_size = 16;
  return params;
}

// Headline numbers for the optional --json report: insertion-ordered
// (name, value) pairs, written as one flat JSON object. Names are plain
// identifiers, so no escaping is needed.
std::vector<std::pair<std::string, double>>* g_metrics = nullptr;

void RecordMetric(const std::string& name, double value) {
  if (g_metrics != nullptr) g_metrics->emplace_back(name, value);
}

int WriteJsonReport(const std::string& path, size_t threads, bool smoke) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return 1;
  }
  std::fprintf(file, "{\n  \"bench\": \"topk_search\",\n");
  std::fprintf(file, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(file, "  \"threads\": %zu,\n", threads);
  std::fprintf(file, "  \"metrics\": {\n");
  for (size_t i = 0; i < g_metrics->size(); ++i) {
    std::fprintf(file, "    \"%s\": %.4f%s\n", (*g_metrics)[i].first.c_str(),
                 (*g_metrics)[i].second,
                 i + 1 < g_metrics->size() ? "," : "");
  }
  std::fprintf(file, "  }\n}\n");
  std::fclose(file);
  std::printf("\nwrote JSON report: %s (%zu metrics)\n", path.c_str(),
              g_metrics->size());
  return 0;
}

std::string KeyName(uint64_t i) { return "key" + std::to_string(i); }

std::shared_ptr<Table> MakeBaseTable(const BenchParams& params, Rng* rng) {
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  keys.reserve(params.base_rows);
  targets.reserve(params.base_rows);
  for (size_t i = 0; i < params.base_rows; ++i) {
    const uint64_t k = rng->NextBounded(params.distinct_keys);
    keys.push_back(KeyName(k));
    targets.push_back(static_cast<int64_t>(k % 16));
  }
  return *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                              {"Y", Column::MakeInt64(std::move(targets))}});
}

TableRepository MakeRepository(const BenchParams& params, Rng* rng) {
  TableRepository repository;
  for (size_t t = 0; t < params.candidate_tables; ++t) {
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    keys.reserve(params.candidate_rows);
    values.reserve(params.candidate_rows);
    // Candidates range from perfectly informative (t = 0 copies the target
    // function) to pure noise, so the top-k ranking is non-trivial.
    const uint64_t noise = 1 + static_cast<uint64_t>(t);
    for (size_t i = 0; i < params.candidate_rows; ++i) {
      const uint64_t k = rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      const int64_t signal = static_cast<int64_t>(k % 16);
      const int64_t jitter = static_cast<int64_t>(rng->NextBounded(noise));
      values.push_back(signal + jitter);
    }
    repository
        .AddTable("cand" + std::to_string(t),
                  *Table::FromColumns(
                      {{"K", Column::MakeString(std::move(keys))},
                       {"V", Column::MakeInt64(std::move(values))}}))
        .Abort("adding candidate table");
  }
  return repository;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The timer every gated ratio is taken from. Each timed region repeats a
// leg's pass until it lasts at least 10 ms, so one descheduling or timer
// tick moves it little, and gives milliseconds per pass. The legs run once
// per round over kTimingRounds rounds, in order on even rounds and with
// the first leg moved to the end on odd ones, so no leg always runs first,
// and a ratio is the median of the rounds' ratios: a burst on a shared
// runner skews a round, not the median.
constexpr int kTimingRounds = 21;

double TimeLeg(const std::function<void()>& pass) {
  size_t passes = 0;
  double ms = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    pass();
    ++passes;
    ms = MillisSince(start);
  } while (ms < 10.0);
  return ms / static_cast<double>(passes);
}

// Each leg's milliseconds per pass, one entry per round.
std::vector<std::vector<double>> TimeLegs(
    const std::vector<std::function<void()>>& legs) {
  std::vector<std::vector<double>> times(legs.size());
  for (int round = 0; round < kTimingRounds; ++round) {
    for (size_t i = 0; i < legs.size(); ++i) {
      const size_t leg = (i + round % 2) % legs.size();
      times[leg].push_back(TimeLeg(legs[leg]));
    }
  }
  return times;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// The median over rounds of numerator / denominator.
double MedianRatio(const std::vector<double>& numerator,
                   const std::vector<double>& denominator) {
  std::vector<double> ratios;
  for (size_t round = 0; round < numerator.size(); ++round) {
    ratios.push_back(numerator[round] / denominator[round]);
  }
  return Median(std::move(ratios));
}

JoinMIConfig MakeJoinConfig(const BenchParams& params) {
  JoinMIConfig config;
  config.sketch_capacity = params.sketch_capacity;
  config.min_join_size = params.min_join_size;
  return config;
}

// The pre-engine API: one independent SketchJoinMI per candidate pair,
// keeping the best k by (mi desc, enumeration order) like the engine does.
double RunNaiveSerial(const BenchParams& params, const Table& base,
                      const TableRepository& repository) {
  const JoinMIConfig config = MakeJoinConfig(params);
  const auto start = std::chrono::steady_clock::now();
  size_t evaluated = 0;
  double best = 0.0;
  for (const ColumnPairRef& ref : repository.ExtractColumnPairs()) {
    auto table = repository.GetTable(ref.table_name);
    if (!table.ok()) continue;
    auto estimate =
        SketchJoinMI(base, **table,
                     {"K", "Y", ref.key_column, ref.value_column}, config);
    if (!estimate.ok()) continue;
    ++evaluated;
    if (estimate->mi > best) best = estimate->mi;
  }
  const double ms = MillisSince(start);
  std::printf("naive serial : %8.1f ms  (%zu candidates evaluated, best MI "
              "%.3f)\n",
              ms, evaluated, best);
  return ms;
}

// The engine: index the repository (every candidate sketched once, on the
// shared pool), then one index search with `num_threads`. Both are timed:
// a single query pays for the whole index.
double RunEngine(const BenchParams& params, const Table& base,
                 const TableRepository& repository, size_t num_threads,
                 TopKSearchResult* result_out) {
  const auto start = std::chrono::steady_clock::now();
  SketchIndex index(MakeJoinConfig(params));
  index.IndexRepository(repository).status().Abort("IndexRepository");
  auto result =
      TopKJoinMISearch(base, {"K", "Y"}, index, params.top_k, num_threads);
  const double ms = MillisSince(start);
  result.status().Abort("TopKJoinMISearch");
  std::printf("engine x%-4zu: %8.1f ms  (%zu evaluated, %zu skipped, %zu "
              "errors, top hit %s MI %.3f)\n",
              num_threads, ms, result->num_evaluated, result->num_skipped,
              result->num_errors,
              result->hits.empty()
                  ? "-"
                  : result->hits[0].candidate.table_name.c_str(),
              result->hits.empty() ? 0.0 : result->hits[0].estimate.mi);
  if (result_out != nullptr) *result_out = std::move(*result);
  return ms;
}

void ExpectSameRanking(const TopKSearchResult& a, const TopKSearchResult& b,
                       const char* what) {
  bool same = a.hits.size() == b.hits.size();
  for (size_t i = 0; same && i < a.hits.size(); ++i) {
    same = a.hits[i].candidate.table_name == b.hits[i].candidate.table_name &&
           a.hits[i].candidate.value_column == b.hits[i].candidate.value_column &&
           a.hits[i].estimate.mi == b.hits[i].estimate.mi;
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: %s rankings disagree\n", what);
    std::abort();
  }
}

// Part 7: paged shard storage vs whole-file in-memory shards — cold
// start and query latency across buffer-pool budgets.
void RunPagedStorage(const BenchParams& params,
                     const TableRepository& repository, size_t threads,
                     bool smoke, Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = 4;
  const size_t num_shards = 2;
  // Small pages in smoke mode so even its tiny shards span enough pages
  // for the starving pool to actually evict.
  const uint32_t page_size = smoke ? 1024 : 4096;
  const std::vector<size_t> pool_sizes = smoke
                                             ? std::vector<size_t>{2, 64, 65536}
                                             : std::vector<size_t>{4, 64, 65536};

  std::printf("\n== paged shard storage: JMPS + buffer pool vs whole-file "
              "in-memory shards (%zu shards, %u-byte pages, engine x%zu) "
              "==\n",
              num_shards, page_size, threads);
  const std::string shard_root =
      "/tmp/joinmi_bench_paged_shards." + std::to_string(getpid());

  auto whole_manifest =
      BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  shard_root + "/whole");
  whole_manifest.status().Abort("partitioning (whole-file)");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = page_size;
  auto paged_manifest =
      BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  shard_root + "/paged", paged_build);
  paged_manifest.status().Abort("partitioning (paged)");

  // Whole-file baseline: cold start deserializes every candidate; queries
  // probe fully materialized in-memory indices.
  auto whole_start = std::chrono::steady_clock::now();
  auto whole = ShardedSketchIndex::Load(*whole_manifest);
  whole.status().Abort("loading whole-file shards");
  const double whole_load_ms = MillisSince(whole_start);
  TopKSearchResult reference;
  {
    auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, *whole,
                                   params.top_k, threads);
    result.status().Abort("whole-file sharded search");
    reference = std::move(*result);
  }
  auto whole_query_start = std::chrono::steady_clock::now();
  for (size_t q = 0; q < queries; ++q) {
    TopKJoinMISearch(*query_table, {"K", "Y"}, *whole, params.top_k, threads)
        .status()
        .Abort("whole-file sharded search");
  }
  const double whole_query_ms = MillisSince(whole_query_start) / queries;
  std::printf("whole-file   : cold start %8.2f ms | %8.2f ms/query "
              "(everything deserialized up front)\n",
              whole_load_ms, whole_query_ms);
  RecordMetric("paged_bench_whole_load_ms", whole_load_ms);
  RecordMetric("paged_bench_whole_query_ms", whole_query_ms);

  auto manifest = ReadManifestFile(*paged_manifest);
  manifest.status().Abort("reading the paged manifest");
  const std::string paged_dir = shard_root + "/paged";
  for (size_t pool_pages : pool_sizes) {
    // Open the typed clients directly so the pool counters stay
    // observable behind the ShardedSketchIndex surface.
    PagedShardClient::Options options;
    options.pool_pages = pool_pages;
    std::vector<const PagedShardClient*> typed;
    std::vector<std::unique_ptr<ShardClient>> clients;
    uint64_t startup_bytes = 0;
    uint64_t file_bytes = 0;
    auto open_start = std::chrono::steady_clock::now();
    for (const ShardManifestEntry& entry : manifest->shards) {
      auto client = PagedShardClient::Open(paged_dir + "/" + entry.path,
                                           entry.global_indices, options);
      client.status().Abort("opening a paged shard");
      typed.push_back(client->get());
      startup_bytes += (*client)->open_stats().startup_bytes_read;
      file_bytes += (*client)->open_stats().file_size;
      clients.push_back(std::move(*client));
    }
    ShardManifest manifest_copy = *manifest;
    auto paged = ShardedSketchIndex::Create(std::move(manifest_copy),
                                            std::move(clients));
    paged.status().Abort("assembling the paged sharded index");
    const double open_ms = MillisSince(open_start);

    // Correctness gate: identical rankings even when the pool starves.
    {
      auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, *paged,
                                     params.top_k, threads);
      result.status().Abort("paged sharded search");
      ExpectSameRanking(reference, *result, "whole-file and paged");
    }
    auto query_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries; ++q) {
      TopKJoinMISearch(*query_table, {"K", "Y"}, *paged, params.top_k,
                       threads)
          .status()
          .Abort("paged sharded search");
    }
    const double query_ms = MillisSince(query_start) / queries;

    storage::BufferPoolStats stats;
    for (const PagedShardClient* client : typed) {
      const storage::BufferPoolStats shard_stats = client->pool_stats();
      stats.hits += shard_stats.hits;
      stats.misses += shard_stats.misses;
      stats.evictions += shard_stats.evictions;
    }
    if (pool_pages == pool_sizes.front() && stats.evictions == 0) {
      std::fprintf(stderr, "FATAL: the starving pool (%zu pages) never "
                   "evicted — the bench is not exercising eviction\n",
                   pool_pages);
      std::abort();
    }
    std::printf("pool=%-6zu  : cold start %8.2f ms (read %llu of %llu "
                "bytes) | %8.2f ms/query | %llu hits %llu misses %llu "
                "evictions\n",
                pool_pages, open_ms,
                static_cast<unsigned long long>(startup_bytes),
                static_cast<unsigned long long>(file_bytes), query_ms,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
    const std::string suffix = std::to_string(pool_pages);
    RecordMetric("paged_bench_open_ms_pool_" + suffix, open_ms);
    RecordMetric("paged_bench_query_ms_pool_" + suffix, query_ms);
    RecordMetric("paged_bench_evictions_pool_" + suffix,
                 static_cast<double>(stats.evictions));
  }
  RecordMetric("paged_bench_queries", static_cast<double>(queries));
  std::filesystem::remove_all(shard_root);
  std::printf("(paged cold start is header + directory per shard no matter "
              "the shard size; the starving pool trades latency for a hard "
              "memory ceiling, the big pool converges on in-memory speed "
              "after first touch)\n");
}

// Part 8: the front tier — Router result cache under a skewed-popularity
// workload over the simulated open-data repository, and the admission
// gate under deliberate saturation.
void RunFrontTier(const BenchParams& params, bool smoke, Rng* rng) {
  OpenDataParams od = NYCLikeParams();
  od.num_pairs = smoke ? 12 : 16;
  od.num_families = 4;
  if (smoke) {
    od.left_rows = 800;
    od.right_rows = 400;
  }
  auto pairs = GenerateOpenDataCollection(od);
  pairs.status().Abort("generating the open-data collection");

  TableRepository repository;
  for (size_t i = 0; i < pairs->size(); ++i) {
    repository
        .AddTable("dataset_" + std::to_string(i), (*pairs)[i].cand)
        .Abort("registering an open-data table");
  }
  JoinMIConfig config;
  config.sketch_capacity = params.sketch_capacity;
  config.min_join_size = 16;
  config.aggregation = AggKind::kFirst;  // mixed-type repository
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort(
      "indexing the open-data repository");

  const std::string shard_root =
      "/tmp/joinmi_bench_front_tier." + std::to_string(getpid());
  auto manifest_path = BuildShards(index, 2,
                                   ShardPartitionPolicy::kRoundRobin,
                                   shard_root);
  manifest_path.status().Abort("partitioning the open-data index");

  // Distinct query tables: the train sides of the first few generated
  // pairs, each sketched ONCE — clients hold their sketch across repeats,
  // which is exactly why the wire uploads it once per connection.
  const size_t distinct = std::min<size_t>(smoke ? 3 : 6, pairs->size());
  std::vector<JoinMIQuery> queries;
  for (size_t i = 0; i < distinct; ++i) {
    auto query = JoinMIQuery::Create(*(*pairs)[i].train, "K", "Y", config);
    query.status().Abort("sketching a workload query table");
    queries.push_back(std::move(*query));
  }

  // Zipf-ish popularity: rank r draws with weight 1/(r+1)^1.2, so the
  // hottest table dominates the stream — the shape that makes a result
  // cache pay. The schedule is drawn once and replayed identically
  // against both routers.
  const size_t requests = smoke ? 24 : 120;
  std::vector<double> cumulative(distinct, 0.0);
  double total_weight = 0.0;
  for (size_t r = 0; r < distinct; ++r) {
    total_weight += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    cumulative[r] = total_weight;
  }
  std::vector<size_t> schedule;
  schedule.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    const double u = total_weight *
                     (static_cast<double>(rng->NextBounded(1u << 20)) /
                      static_cast<double>(1u << 20));
    size_t pick = 0;
    while (pick + 1 < distinct && cumulative[pick] < u) ++pick;
    schedule.push_back(pick);
  }

  RouterOptions cached_options;
  cached_options.manifest_path = *manifest_path;
  auto cached = Router::Open(cached_options);
  cached.status().Abort("opening the cached front-tier router");
  RouterOptions uncached_options = cached_options;
  uncached_options.cache_entries = 0;
  auto uncached = Router::Open(uncached_options);
  uncached.status().Abort("opening the cache-disabled router");

  std::printf("\n== front tier: Router cache under a skewed workload "
              "(%zu requests over %zu hot query tables, 2 shards) ==\n",
              requests, distinct);

  // Correctness gate (and cache warmup): per distinct query, the cached
  // and cache-disabled routers must answer bit-identically.
  for (size_t i = 0; i < distinct; ++i) {
    auto via_cached = (*cached)->SearchQuery(queries[i], params.top_k, 1,
                                             ShardQueryMode::kStrict);
    via_cached.status().Abort("cached front-tier search");
    auto via_uncached = (*uncached)->SearchQuery(queries[i], params.top_k,
                                                 1, ShardQueryMode::kStrict);
    via_uncached.status().Abort("cache-disabled front-tier search");
    ExpectSameRanking(*via_cached, *via_uncached,
                      "cached and cache-disabled");
  }

  auto replay = [&](Router& router) {
    for (size_t pick : schedule) {
      router
          .SearchQuery(queries[pick], params.top_k, 1,
                       ShardQueryMode::kStrict)
          .status()
          .Abort("front-tier workload query");
    }
  };
  // The two routers' replays are the legs of the shared ratio timer: a
  // cached smoke replay lasts tens of microseconds, so one preemption
  // inside a single replay would dominate the ratio.
  const uint64_t hits_before = (*cached)->cache_stats().hits;
  uint64_t cached_replays = 0;
  const auto replay_times = TimeLegs({[&] { replay(**uncached); },
                                      [&] {
                                        replay(**cached);
                                        ++cached_replays;
                                      }});
  const double uncached_ms = Median(replay_times[0]);
  const double cached_ms = Median(replay_times[1]);
  const double speedup = MedianRatio(replay_times[0], replay_times[1]);
  const RouterCacheStats stats = (*cached)->cache_stats();
  const double hit_rate =
      static_cast<double>(stats.hits - hits_before) /
      static_cast<double>(cached_replays * requests);
  std::printf("uncached     : %8.2f ms/replay | %8.3f ms/query (full "
              "fan-out every request)\n",
              uncached_ms, uncached_ms / requests);
  std::printf("cached       : %8.2f ms/replay | %8.3f ms/query | hit rate "
              "%.2f | repeat speedup %.1fx\n",
              cached_ms, cached_ms / requests, hit_rate, speedup);
  RecordMetric("part8_requests", static_cast<double>(requests));
  RecordMetric("part8_distinct_queries", static_cast<double>(distinct));
  RecordMetric("part8_uncached_ms_per_query", uncached_ms / requests);
  RecordMetric("part8_cached_ms_per_query", cached_ms / requests);
  RecordMetric("part8_cache_hit_rate", hit_rate);
  RecordMetric("part8_repeat_speedup", speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FATAL: cached repeats only %.1fx faster than "
                 "recomputation (acceptance floor is 5x)\n", speedup);
    std::abort();
  }
  if (hit_rate < 1.0) {
    std::fprintf(stderr, "FATAL: warmed cache missed (%0.2f hit rate) — "
                 "the cache key is unstable across identical queries\n",
                 hit_rate);
    std::abort();
  }

  // Admission sub-drill: a max_pending=1, cache-off router under
  // concurrent fire must shed with the structured rejection. Each
  // rejection must carry a parseable retry-after hint.
  RouterOptions gated_options = cached_options;
  gated_options.cache_entries = 0;
  gated_options.max_pending = 1;
  auto gated = Router::Open(gated_options);
  gated.status().Abort("opening the admission-drill router");
  const size_t fan = smoke ? 4 : 8;
  std::atomic<uint64_t> rejections{0};
  std::atomic<uint64_t> bad_rejections{0};
  int rounds = 0;
  while (rounds < 50 && rejections.load() == 0) {
    ++rounds;
    // Start barrier: without it, on a busy single-CPU host each thread
    // can be spawned, scheduled, and finish its (fast) query before the
    // next thread is even created — fully serialized, so the gate never
    // sees two queries in flight and the drill flakes.
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < fan; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Burst rather than a single shot: one query is shorter than a
        // scheduler timeslice, so on a single-CPU host a lone query per
        // thread can run to completion unpreempted and the gate never
        // sees overlap. A burst keeps this thread inside queries for
        // several milliseconds, so whichever thread is preempted
        // mid-query hands the CPU to one that then collides with it.
        for (int shot = 0; shot < 64 && rejections.load() == 0; ++shot) {
          auto result = (*gated)->SearchQuery(queries[0], params.top_k, 1,
                                              ShardQueryMode::kStrict);
          if (!result.ok() && result.status().IsOverloaded()) {
            rejections.fetch_add(1);
            if (RetryAfterHintMs(result.status()) < 0) {
              bad_rejections.fetch_add(1);
            }
          }
        }
      });
    }
    while (ready.load() < fan) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
  }
  std::printf("admission    : %d round(s) of %zu concurrent queries at "
              "max_pending=1 -> %llu kOverloaded rejection(s), retry-after "
              "on all: %s\n",
              rounds, fan,
              static_cast<unsigned long long>(rejections.load()),
              bad_rejections.load() == 0 ? "yes" : "NO (bug!)");
  RecordMetric("part8_overload_rejections",
               static_cast<double>(rejections.load()));
  if (rejections.load() == 0 || bad_rejections.load() != 0) {
    std::fprintf(stderr, "FATAL: the admission gate never shed (or shed "
                 "without a retry-after hint)\n");
    std::abort();
  }

  std::filesystem::remove_all(shard_root);
  std::printf("(the cache returns the stored doubles, bit for bit — the "
              "speedup is the full fan-out it never re-ran; the gate sheds "
              "the excess deterministically instead of queueing it)\n");
}

// Part 9: the scoring hot path — what do the index's key postings, the
// per-query bucket-directory probe, batched strip scoring and the
// branch-free brute-force k-NN buy, and how many heap bytes does the index
// hold per candidate?
//
// The workload is the amortized-probe shape discovery hits at scale: one
// query probed against many candidates whose key domains are
// mostly disjoint from the query's (open-data reality: almost nothing
// joins), with an explicit MLE estimator over int64 values so estimation
// is cheap and probe/join cost dominates — exactly the regime the
// kernel targets. Two implementations of the same evaluation:
//
//   legacy  — the pre-flattening production path, replicated verbatim:
//             per-candidate std::unordered_map probe, per-join sample
//             vectors and matched-key unordered_set;
//   batched — production SketchIndex::EvaluateAll (the train runs look up
//             the index's key postings, then strips of the scoring tail
//             over the candidates that join, thread-local scratch).
//
// Both are cross-checked bit-identical before any timing, every query. Timed single-threaded: this measures the probe path itself, not
// the thread pool (the CI container has 1 CPU anyway).
void RunFlatHotPath(const BenchParams& params, size_t threads, bool smoke,
                    Rng* rng) {
  JoinMIConfig config = MakeJoinConfig(params);
  config.estimator = MIEstimatorKind::kMLE;
  const size_t num_candidates = smoke ? 24 : 200;
  const size_t candidate_rows = smoke ? 400 : 2000;
  const size_t num_queries = smoke ? 2 : 8;

  std::printf("\n== scoring hot path: legacy unordered_map vs batched "
              "strips (x1, Q=%zu, %zu candidates, MLE) ==\n",
              num_queries, num_candidates);

  // Candidate t draws keys from a window sliding away from the query
  // domain [0, distinct_keys): early candidates overlap and join, the
  // long tail shares nothing and must be skipped as cheaply as possible.
  SketchIndex index(config);
  for (size_t t = 0; t < num_candidates; ++t) {
    const uint64_t offset = t * (params.distinct_keys / 4);
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    keys.reserve(candidate_rows);
    values.reserve(candidate_rows);
    for (size_t i = 0; i < candidate_rows; ++i) {
      const uint64_t k = offset + rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      values.push_back(static_cast<int64_t>(k % 16));
    }
    auto table =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"V", Column::MakeInt64(std::move(values))}});
    index.AddCandidate(*table, ColumnPairRef{"flat" + std::to_string(t), "K",
                                             "V"})
        .Abort("part 9 candidate");
  }

  std::vector<JoinMIQuery> queries;
  queries.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    auto base = MakeBaseTable(params, rng);
    queries.push_back(
        *JoinMIQuery::Create(*base, "K", "Y", config));
  }

  // The legacy probe maps and Values, built at "load time" exactly as the
  // pre-flat index held them: a node-based unordered_map per candidate,
  // and each entry's Value from its value word — every part-9 value is a
  // whole number: a double for a candidate (an avg), an int64 for a train.
  auto sketch_values = [](const Sketch& sketch, bool int64s) {
    std::vector<Value> values;
    values.reserve(sketch.size());
    for (size_t i = 0; i < sketch.size(); ++i) {
      const double number = sketch.ValueNumber(i);
      values.push_back(int64s ? Value(static_cast<int64_t>(number))
                              : Value(number));
    }
    return values;
  };
  std::vector<std::unordered_map<uint64_t, uint32_t>> legacy_probes;
  std::vector<std::vector<Value>> legacy_values;
  legacy_probes.reserve(index.size());
  legacy_values.reserve(index.size());
  for (const IndexedCandidate& candidate : index.candidates()) {
    const Sketch& sketch = candidate.sketch();
    std::unordered_map<uint64_t, uint32_t> probe;
    probe.reserve(sketch.size());
    for (uint32_t i = 0; i < sketch.size(); ++i) {
      probe.emplace(sketch.key_hashes[i], i);
    }
    legacy_probes.push_back(std::move(probe));
    legacy_values.push_back(sketch_values(sketch, /*int64s=*/false));
  }
  std::vector<std::vector<Value>> legacy_train_values;
  for (const JoinMIQuery& query : queries) {
    legacy_train_values.push_back(
        sketch_values(query.train_sketch(), /*int64s=*/true));
  }

  struct Outcome {
    std::optional<JoinMIEstimate> estimate;
    bool skipped = false;
  };

  // The pre-flattening per-candidate evaluation, kept verbatim so the
  // baseline cannot silently improve with the production code: walk every
  // train entry, probe the node map, grow fresh Value sample vectors and a
  // matched-key set, then score them as ScoreSketchJoinSample scored a
  // Value sample — the min_join_size guard, every Value hashed and
  // converted into columns, the estimator's minimum sample, the estimate.
  const MIEstimatorKind legacy_kind = *config.estimator;
  auto legacy_score = [&](const PairedSample& sample) -> Result<double> {
    if (sample.size() < config.min_join_size) {
      return JoinBelowMinimum(sample.size(), config.min_join_size);
    }
    PairedColumns buffer;
    JOINMI_ASSIGN_OR_RETURN(SampleColumns columns, buffer.Fill(sample));
    if (columns.size == 0) return JoinBelowMinimum(0, 1);
    const size_t fewest = MinimumSamples(legacy_kind, config.mi_options.k);
    if (columns.size < fewest) {
      return Status::OutOfRange(
          "sketch join produced " + std::to_string(columns.size) +
          " samples; " + MIEstimatorKindToString(legacy_kind) +
          " needs at least " + std::to_string(fewest));
    }
    return EstimateMI(legacy_kind, columns, config.mi_options);
  };
  auto legacy_evaluate = [&](size_t q, size_t c) {
    Outcome outcome;
    const Sketch& train = queries[q].train_sketch();
    const std::vector<Value>& train_values = legacy_train_values[q];
    const std::vector<Value>& values = legacy_values[c];
    const std::unordered_map<uint64_t, uint32_t>& probe = legacy_probes[c];
    PairedSample sample;
    sample.x.reserve(train.size());
    sample.y.reserve(train.size());
    std::unordered_set<uint64_t> matched;
    matched.reserve(train.size());
    for (size_t e = 0; e < train.size(); ++e) {
      const auto it = probe.find(train.key_hashes[e]);
      if (it == probe.end()) continue;
      sample.x.push_back(values[it->second]);
      sample.y.push_back(train_values[e]);
      matched.insert(train.key_hashes[e]);
    }
    const Result<double> mi = legacy_score(sample);
    if (mi.ok()) {
      outcome.estimate =
          JoinMIEstimate{*mi, legacy_kind, sample.size(), /*sketched=*/true};
    } else if (mi.status().IsOutOfRange()) {
      outcome.skipped = true;
    }
    return outcome;
  };

  // Correctness gate before any timing: both paths must agree bit-for-bit
  // on every (query, candidate) outcome.
  for (size_t q = 0; q < queries.size(); ++q) {
    auto batched = index.EvaluateAll(queries[q], 1);
    batched.status().Abort("part 9 batched evaluation");
    for (size_t c = 0; c < index.size(); ++c) {
      const Outcome legacy = legacy_evaluate(q, c);
      const std::optional<JoinMIEstimate>& batch = batched->estimates[c];
      const bool agree =
          legacy.estimate.has_value() == batch.has_value() &&
          (!batch.has_value() ||
           (legacy.estimate->mi == batch->mi &&
            legacy.estimate->sample_size == batch->sample_size &&
            legacy.estimate->estimator == batch->estimator));
      if (!agree) {
        std::fprintf(stderr,
                     "FATAL: part 9 paths disagree on candidate %zu\n", c);
        std::abort();
      }
    }
  }

  // One pass of each leg over the whole query set, counting the estimates.
  auto legacy_pass = [&] {
    size_t evaluated = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t c = 0; c < index.size(); ++c) {
        evaluated += legacy_evaluate(q, c).estimate.has_value();
      }
    }
    return evaluated;
  };
  auto batched_pass = [&] {
    size_t evaluated = 0;
    for (const JoinMIQuery& query : queries) {
      auto evaluation = index.EvaluateAll(query, 1);
      evaluation.status().Abort("part 9 batched evaluation");
      evaluated += evaluation->num_evaluated;
    }
    return evaluated;
  };

  // One untimed warm-up pass per path so thread_local scratch (match
  // buffer, sample capacity) reaches its steady-state size before the
  // allocation counter and the clocks start; then one counted pass each.
  legacy_pass();
  batched_pass();
  const uint64_t legacy_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const size_t legacy_evaluated = legacy_pass();
  const uint64_t legacy_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - legacy_allocs_before;
  const uint64_t batched_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const size_t batched_evaluated = batched_pass();
  const uint64_t batched_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - batched_allocs_before;
  if (legacy_evaluated != batched_evaluated) {
    std::fprintf(stderr, "FATAL: part 9 evaluated counts disagree\n");
    std::abort();
  }

  const auto batched_times = TimeLegs({legacy_pass, batched_pass});
  const double legacy_ms = Median(batched_times[0]);
  const double batched_ms = Median(batched_times[1]);
  const double batched_speedup =
      MedianRatio(batched_times[0], batched_times[1]);

  // The same evaluation at the bench's thread count, once the shared
  // pool's workers are warm: a fan-out that allocated per strip or spawned
  // threads per call would show here, scaled by the strip count. Every
  // thread that can take part warms its scratch first — each pool worker
  // and the caller hold one index until all have arrived, then evaluate
  // inline — since warm-up rounds at `threads` leave a worker cold
  // whenever the others happen to claim every strip.
  WorkSharingPool& pool = WorkSharingPool::Shared();
  const size_t participants = pool.num_threads() + 1;
  std::atomic<size_t> arrived{0};
  pool.ParallelFor(participants, participants, [&](size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < participants) std::this_thread::yield();
    for (const JoinMIQuery& query : queries) {
      index.EvaluateAll(query, 1).status().Abort("part 9 xT warm-up");
    }
  });
  for (const JoinMIQuery& query : queries) {
    index.EvaluateAll(query, threads).status().Abort("part 9 xT warm-up");
  }
  const uint64_t xt_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  size_t xt_evaluated = 0;
  for (const JoinMIQuery& query : queries) {
    auto evaluation = index.EvaluateAll(query, threads);
    evaluation.status().Abort("part 9 xT evaluation");
    xt_evaluated += evaluation->num_evaluated;
  }
  const double xt_allocs_per_query =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          xt_allocs_before) /
      static_cast<double>(num_queries);
  if (xt_evaluated != batched_evaluated) {
    std::fprintf(stderr, "FATAL: part 9 x%zu evaluated counts disagree\n",
                 threads);
    std::abort();
  }

  // Steady-state probe-phase cost, isolated from scoring: a query whose
  // key domain overlaps no candidate makes every candidate skip below
  // min_join_size, so nothing downstream of the probe runs. The kernel's
  // probe still walks every key of every candidate; the index's postings
  // look up only the query's keys. This is also the dominant shape at
  // scale: almost nothing joins. The sweep runs over its own index of many
  // full-capacity candidates: over the 24 of the smoke index, a branch
  // predictor learns the whole sweep and a branchy merge times like the
  // bucket probe.
  const size_t probe_candidates = smoke ? 512 : 1024;
  const size_t probe_rows = 2 * params.sketch_capacity;
  SketchIndex probe_index(config);
  for (size_t t = 0; t < probe_candidates; ++t) {
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    keys.reserve(probe_rows);
    values.reserve(probe_rows);
    for (size_t i = 0; i < probe_rows; ++i) {
      const uint64_t k = 200000000 + t * probe_rows + i;
      keys.push_back(KeyName(k));
      values.push_back(static_cast<int64_t>(k % 16));
    }
    auto table =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"V", Column::MakeInt64(std::move(values))}});
    probe_index
        .AddCandidate(*table, ColumnPairRef{"probe" + std::to_string(t), "K",
                                            "V"})
        .Abort("part 9 probe candidate");
  }
  // Swept as a server holds it: loaded from its serialized form, each
  // candidate's columns allocated one after another, not between the
  // tables and builder scratch that sketching them left behind.
  {
    auto loaded = DeserializeIndex(SerializeIndex(probe_index));
    loaded.status().Abort("part 9 probe index reload");
    probe_index = std::move(*loaded);
  }
  JoinMIQuery nojoin_query = [&] {
    std::vector<std::string> keys;
    std::vector<int64_t> targets;
    keys.reserve(params.base_rows);
    targets.reserve(params.base_rows);
    for (size_t i = 0; i < params.base_rows; ++i) {
      const uint64_t k = 100000000 + rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      targets.push_back(static_cast<int64_t>(k % 16));
    }
    auto base =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"Y", Column::MakeInt64(std::move(targets))}});
    return *JoinMIQuery::Create(*base, "K", "Y", config);
  }();
  probe_index.EvaluateAll(nojoin_query, 1)
      .status()
      .Abort("part 9 probe warm-up");
  const size_t probe_passes = 4;
  const uint64_t probe_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (size_t pass = 0; pass < probe_passes; ++pass) {
    auto evaluation = probe_index.EvaluateAll(nojoin_query, 1);
    evaluation.status().Abort("part 9 probe pass");
    if (evaluation->num_skipped != probe_index.size()) {
      std::fprintf(stderr, "FATAL: part 9 no-join query joined something\n");
      std::abort();
    }
  }
  const double probe_allocs_per_query =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          probe_allocs_before) /
      static_cast<double>(probe_passes);

  // The no-join sweep three ways: the scoring kernel's bucket-directory
  // probe (ScoreMergeJoin, which paged shards and JoinMIQuery::Estimate
  // run per candidate) over each candidate's own key column, the index's
  // key postings (EvaluateAll), and the JoinSketches reference join (a
  // hash map per candidate). The probe is timed against the reference,
  // alternating over the rounds as above; the postings are reported
  // beside it.
  size_t probe_joined = 0;
  size_t reference_joined = 0;
  auto probe_pass = [&] {
    for (const IndexedCandidate& candidate : probe_index.candidates()) {
      const MergeJoinScore score = ScoreMergeJoin(
          nojoin_query.train_sketch(), nojoin_query.train_runs(),
          candidate.sketch(), config.estimator, config.mi_options,
          config.min_join_size);
      probe_joined += score.join_size;
    }
  };
  auto postings_pass = [&] {
    probe_index.EvaluateAll(nojoin_query, 1)
        .status()
        .Abort("part 9 postings pass");
  };
  auto reference_pass = [&] {
    for (const IndexedCandidate& candidate : probe_index.candidates()) {
      auto joined =
          JoinSketches(nojoin_query.train_sketch(), candidate.sketch());
      joined.status().Abort("part 9 reference join");
      reference_joined += joined->join_size;
    }
  };
  const auto probe_times =
      TimeLegs({probe_pass, postings_pass, reference_pass});
  if (probe_joined != 0 || reference_joined != 0) {
    std::fprintf(stderr, "FATAL: part 9 no-join probe or reference joined "
                         "something\n");
    std::abort();
  }
  const double per_candidate_ns =
      1e6 / static_cast<double>(probe_index.size());
  const double probe_ns_per_candidate =
      Median(probe_times[0]) * per_candidate_ns;
  const double postings_ns_per_candidate =
      Median(probe_times[1]) * per_candidate_ns;
  const double probe_speedup = MedianRatio(probe_times[2], probe_times[0]);

  // The estimator kernel: MixedKSG (k = 3) by brute force against its
  // tree oracle, over a fixed seeded set of n = 40 Gaussian samples — the
  // size sketch joins are scored at. Rounds alternate the two searches and
  // each keeps its fastest, as above; the two must agree bit for bit.
  constexpr size_t kKsgSamples = 128;
  constexpr size_t kKsgPoints = 40;
  std::vector<double> ksg_xs, ksg_ys;
  {
    Rng ksg_rng(40);
    for (size_t i = 0; i < kKsgSamples * kKsgPoints; ++i) {
      ksg_xs.push_back(ksg_rng.Gaussian());
      ksg_ys.push_back(ksg_xs.back() + ksg_rng.Gaussian());
    }
  }
  // The brute force by the dispatched kernel and by the 2-lane baseline
  // (the same kernel on a CPU without AVX2), and the trees.
  const internal::BruteForceKernel& dispatched_kernel =
      internal::DispatchedBruteForceKernel();
  const internal::BruteForceKernel& baseline_kernel =
      internal::BaselineBruteForceKernel();
  auto time_mixed_ksg = [&](internal::NeighborSearch search,
                            const internal::BruteForceKernel& kernel,
                            double* sum) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t s = 0; s < kKsgSamples; ++s) {
      auto mi = internal::MutualInformationMixedKSG(
          ksg_xs.data() + s * kKsgPoints, ksg_ys.data() + s * kKsgPoints,
          kKsgPoints, 3, search, kernel);
      mi.status().Abort("part 9 MixedKSG estimate");
      *sum += *mi;
    }
    return MillisSince(start);
  };
  double ksg_brute_ms = std::numeric_limits<double>::infinity();
  double ksg_baseline_ms = std::numeric_limits<double>::infinity();
  double ksg_tree_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    double brute_sum = 0.0, baseline_sum = 0.0, tree_sum = 0.0;
    ksg_brute_ms = std::min(
        ksg_brute_ms, time_mixed_ksg(internal::NeighborSearch::kBruteForce,
                                     dispatched_kernel, &brute_sum));
    ksg_baseline_ms = std::min(
        ksg_baseline_ms, time_mixed_ksg(internal::NeighborSearch::kBruteForce,
                                        baseline_kernel, &baseline_sum));
    ksg_tree_ms = std::min(
        ksg_tree_ms, time_mixed_ksg(internal::NeighborSearch::kTrees,
                                    dispatched_kernel, &tree_sum));
    if (brute_sum != tree_sum || baseline_sum != tree_sum) {
      std::fprintf(stderr,
                   "FATAL: part 9 MixedKSG brute force and trees disagree\n");
      std::abort();
    }
  }
  const double ksg_brute_speedup = ksg_tree_ms / ksg_brute_ms;
  const double ksg_baseline_speedup = ksg_tree_ms / ksg_baseline_ms;
  const int ksg_lanes = dispatched_kernel.lanes;

  // The query's fixed cost: JoinMIQuery::Create (the TUPSK train sketch
  // and its key runs) at the default capacity, on string-keyed tables of
  // 2000 and 9000 rows with about three rows per key, the query sizes of
  // the discovery benchmark's sparse_lake and dense_join. The medians are
  // timings, reported ungated; the heap allocations of one warm build of
  // the larger table are a count, gated in bench_check.py.
  const JoinMIConfig build_config;
  const size_t build_rows[2] = {2000, 9000};
  double build_us[2] = {0.0, 0.0};
  uint64_t build_allocs = 0;
  for (size_t t = 0; t < 2; ++t) {
    Rng table_rng(build_rows[t]);
    std::vector<std::string> keys;
    std::vector<double> targets;
    for (size_t row = 0; row < build_rows[t]; ++row) {
      keys.push_back(KeyName(table_rng.NextBounded(build_rows[t] / 3)));
      targets.push_back(static_cast<double>(table_rng.NextBounded(1000)) /
                        8.0);
    }
    auto table =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"Y", Column::MakeDouble(std::move(targets))}});
    std::vector<double> times;
    for (size_t rep = 0; rep < (smoke ? 5 : 41); ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto built = JoinMIQuery::Create(*table, "K", "Y", build_config);
      times.push_back(MillisSince(start) * 1e3);
      built.status().Abort("part 9 query build");
    }
    std::sort(times.begin(), times.end());
    build_us[t] = times[times.size() / 2];
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    auto built = JoinMIQuery::Create(*table, "K", "Y", build_config);
    build_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
    built.status().Abort("part 9 query build");
  }

  // Heap bytes the index holds: malloc's in-use count (arena plus mmapped
  // chunks) across reloading the same index from its serialized form, once
  // the loader's temporaries are freed. Each sketch and the key-hash
  // column count; the serialized bytes and the source index do not.
  const std::string serialized = SerializeIndex(index);
  double index_bytes_per_candidate = 0.0;
  size_t index_entries = 0;
  {
    const struct mallinfo2 before = mallinfo2();
    auto reloaded = DeserializeIndex(serialized);
    reloaded.status().Abort("part 9 index reload");
    const struct mallinfo2 after = mallinfo2();
    const double held =
        static_cast<double>(after.uordblks + after.hblkhd) -
        static_cast<double>(before.uordblks + before.hblkhd);
    index_bytes_per_candidate = held / static_cast<double>(reloaded->size());
    for (const IndexedCandidate& candidate : reloaded->candidates()) {
      index_entries += candidate.sketch().size();
    }
  }
  const double legacy_apq =
      static_cast<double>(legacy_allocs) / static_cast<double>(num_queries);
  const double batched_apq =
      static_cast<double>(batched_allocs) / static_cast<double>(num_queries);
  const double allocs_per_candidate =
      batched_apq / static_cast<double>(index.size());
  std::printf("legacy  (unordered_map/candidate): %8.1f ms  (%.1f ms/query, "
              "%.0f allocs/query)\n",
              legacy_ms, legacy_ms / num_queries, legacy_apq);
  std::printf("batched (EvaluateAll strips)     : %8.1f ms  (%.1f ms/query, "
              "%.0f allocs/query = %.2f/candidate)  %.2fx vs legacy\n",
              batched_ms, batched_ms / num_queries, batched_apq,
              allocs_per_candidate, batched_speedup);
  std::printf("batched at x%-2zu (warm shared pool) : %.1f allocs/query\n",
              threads, xt_allocs_per_query);
  std::printf("probe phase only (no-join query) : %.1f allocs/query across "
              "%zu candidates; ScoreMergeJoin probe %.0f ns/candidate, "
              "%.1fx vs JoinSketches; index postings %.1f ns/candidate\n",
              probe_allocs_per_query, probe_index.size(),
              probe_ns_per_candidate, probe_speedup,
              postings_ns_per_candidate);
  std::printf("MixedKSG k=3, n=%zu (%zu samples)   : brute (%d lanes) %.2f "
              "us vs trees %.2f us per estimate, %.2fx (2 lanes %.2fx)\n",
              kKsgPoints, kKsgSamples, ksg_lanes,
              ksg_brute_ms * 1e3 / kKsgSamples,
              ksg_tree_ms * 1e3 / kKsgSamples, ksg_brute_speedup,
              ksg_baseline_speedup);
  std::printf("query build (JoinMIQuery::Create) : %.1f us at 2000 rows, "
              "%.1f us at 9000 rows, %llu allocations warm\n",
              build_us[0], build_us[1],
              static_cast<unsigned long long>(build_allocs));
  std::printf("index heap                        : %.0f bytes/candidate "
              "(%zu entries/candidate)\n",
              index_bytes_per_candidate, index_entries / index.size());
  std::printf("(steady state: the batched path's postings scratch is reused "
              "thread-local storage, so a no-join sweep allocates O(1) — "
              "the outcome vectors — regardless of candidate count; the "
              "allocs/query above are dominated by the few candidates that "
              "actually reach the estimator)\n");

  RecordMetric("part9_candidates", static_cast<double>(index.size()));
  RecordMetric("part9_queries", static_cast<double>(num_queries));
  RecordMetric("part9_legacy_ms_per_query", legacy_ms / num_queries);
  RecordMetric("part9_batched_ms_per_query", batched_ms / num_queries);
  RecordMetric("part9_batched_speedup", batched_speedup);
  RecordMetric("part9_legacy_allocs_per_query", legacy_apq);
  RecordMetric("part9_batched_allocs_per_query", batched_apq);
  RecordMetric("part9_allocs_per_candidate", allocs_per_candidate);
  RecordMetric("part9_allocs_per_query_xT", xt_allocs_per_query);
  RecordMetric("part9_probe_allocs_per_query", probe_allocs_per_query);
  RecordMetric("part9_probe_ns_per_candidate", probe_ns_per_candidate);
  RecordMetric("part9_probe_speedup", probe_speedup);
  RecordMetric("part9_postings_ns_per_candidate", postings_ns_per_candidate);
  RecordMetric("part9_index_bytes_per_candidate", index_bytes_per_candidate);
  RecordMetric("part9_query_build_us_2000", build_us[0]);
  RecordMetric("part9_query_build_us_9000", build_us[1]);
  RecordMetric("part9_query_build_allocs", static_cast<double>(build_allocs));
  // The brute-force kernel instantiation the CPU dispatched to (4 lanes
  // with AVX2, else 2). Ungated itself: bench_check.py gates the
  // dispatched speedup only on a CPU with the baseline's lane count, and
  // the 2-lane kernel's speedup on every CPU.
  RecordMetric("part9_ksg_lanes", static_cast<double>(ksg_lanes));
  RecordMetric("part9_mixed_ksg_brute_us", ksg_brute_ms * 1e3 / kKsgSamples);
  RecordMetric("part9_mixed_ksg_tree_us", ksg_tree_ms * 1e3 / kKsgSamples);
  RecordMetric("part9_ksg_brute_speedup", ksg_brute_speedup);
  RecordMetric("part9_ksg_brute_speedup_2_lanes", ksg_baseline_speedup);

  // Hard gates. The probe-phase allocation bound holds in any mode (it is
  // a count, not a timing); the speedup gate runs full mode only — smoke
  // timings on shared CI runners are noise, and bench_check.py's ratio
  // gate covers smoke regressions.
  if (probe_allocs_per_query >= 8.0) {
    std::fprintf(stderr,
                 "FATAL: probe phase allocates %.1f blocks/query; the "
                 "hot path promises O(1) (< 8)\n",
                 probe_allocs_per_query);
    std::abort();
  }
  if (!smoke && batched_speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: batched hot path is only %.2fx vs legacy "
                 "(required >= 2x)\n",
                 batched_speedup);
    std::abort();
  }
}

// Part 10: the mutable index under live traffic. Phase A serves a base
// deployment through a Router (cache off — the fan-out is on trial, not
// the cache) and measures per-query latency in steady state, then again
// while an IngestCoordinator interleaves delta appends, a publish, and a
// router reload between the timed queries. Phase B loads the same final
// candidate set with 0%, 25%, and 50% of candidates living in delta
// sidecars and measures the overlay's per-query read cost. Every serving
// path is cross-checked bit-identical to the full unsharded index before
// any number prints; the gates in bench_check.py watch the slowdown and
// overlay ratios, never raw milliseconds.
void RunOnlineIngest(const BenchParams& params,
                     const TableRepository& repository, size_t threads,
                     bool smoke, Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex full(config);
  full.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = smoke ? 6 : 18;
  const size_t num_shards = 2;

  auto reference = TopKJoinMISearch(*query_table, {"K", "Y"}, full,
                                    params.top_k, threads);
  reference.status().Abort("unsharded reference search");

  const std::string root =
      "/tmp/joinmi_bench_ingest." + std::to_string(getpid());

  // The first `count` candidates as their own index — the state of the
  // world when the base shards were built.
  auto prefix_index = [&](size_t count) {
    SketchIndex index(config);
    for (size_t i = 0; i < count; ++i) {
      const IndexedCandidate& candidate = full.candidates()[i];
      index.AddSketch(candidate.ref, candidate.sketch())
          .Abort("copying a candidate sketch");
    }
    return index;
  };
  auto tail_records = [&](size_t from, size_t to) {
    std::vector<CandidateRecord> records;
    for (size_t i = from; i < to; ++i) {
      const IndexedCandidate& candidate = full.candidates()[i];
      records.push_back(CandidateRecord{candidate.ref, candidate.sketch()});
    }
    return records;
  };

  std::printf("\n== online ingest: serving while appending (engine x%zu, "
              "%zu shards, %zu candidates) ==\n",
              threads, num_shards, full.size());

  // ---------------- Phase A: steady state vs ingest+reload in progress.
  const size_t base_count = full.size() - full.size() / 4;
  const std::string live_dir = root + "/live";
  BuildShards(prefix_index(base_count), num_shards,
              ShardPartitionPolicy::kRoundRobin, live_dir)
      .status()
      .Abort("building the base deployment");
  RouterOptions options;
  options.manifest_path = live_dir;
  options.cache_entries = 0;  // measure the fan-out, not the cache
  options.num_threads = threads;
  auto router = Router::Open(std::move(options));
  router.status().Abort("opening the router");

  auto timed_query = [&]() {
    const auto start = std::chrono::steady_clock::now();
    (*router)
        ->Search(*query_table, {"K", "Y"}, params.top_k)
        .status()
        .Abort("router search");
    return MillisSince(start);
  };

  double steady_total = 0;
  for (size_t q = 0; q < queries; ++q) steady_total += timed_query();
  const double steady_ms = steady_total / queries;

  auto coordinator = ingest::IngestCoordinator::Open(live_dir);
  coordinator.status().Abort("opening the ingest coordinator");
  // One ingest step between every few timed queries, so the "during"
  // number genuinely overlaps appends, the publish, and the reload.
  const size_t delta_count = full.size() - base_count;
  const size_t append_batches = 3;
  const size_t total_steps = append_batches + 2;  // appends, publish, reload
  const size_t queries_per_step = (queries + total_steps - 1) / total_steps;
  double during_total = 0;
  size_t during_queries = 0;
  double reload_ms = 0;
  for (size_t step = 0; step < total_steps; ++step) {
    if (step < append_batches) {
      const size_t from = base_count + (delta_count * step) / append_batches;
      const size_t to =
          base_count + (delta_count * (step + 1)) / append_batches;
      if (to > from) {
        (*coordinator)
            ->Append(tail_records(from, to))
            .Abort("appending a delta batch");
      }
    } else if (step == append_batches) {
      (*coordinator)->Publish().status().Abort("publishing the generation");
    } else {
      const auto reload_start = std::chrono::steady_clock::now();
      (*router)->Reload().Abort("reloading the router");
      reload_ms = MillisSince(reload_start);
    }
    for (size_t q = 0; q < queries_per_step; ++q) {
      during_total += timed_query();
      ++during_queries;
    }
  }
  const double during_ms = during_total / during_queries;
  const double slowdown = during_ms / steady_ms;

  // Correctness gate: the post-reload overlay must rank exactly like the
  // full index rebuilt from scratch.
  auto post_reload =
      (*router)->Search(*query_table, {"K", "Y"}, params.top_k);
  post_reload.status().Abort("post-reload search");
  ExpectSameRanking(*reference, *post_reload,
                    "post-reload overlay and full-index");

  std::printf("steady state : %8.3f ms/query (epoch 0, %zu candidates)\n",
              steady_ms, base_count);
  std::printf("during ingest: %8.3f ms/query (%.2fx steady; %zu appended, "
              "reload %.2f ms, epoch %llu)\n",
              during_ms, slowdown, delta_count, reload_ms,
              static_cast<unsigned long long>((*router)->epoch()));

  // ------------------- Phase B: delta-overlay cost vs delta size.
  // All three deployments stay open, so their timed legs interleave.
  const std::vector<std::pair<const char*, size_t>> fractions = {
      {"00", 0},
      {"25", full.size() / 4},
      {"50", full.size() / 2},
  };
  std::vector<ShardedSketchIndex> overlays;
  overlays.reserve(fractions.size());
  for (const auto& [label, dcount] : fractions) {
    const std::string dir = root + "/overlay" + label;
    BuildShards(prefix_index(full.size() - dcount), num_shards,
                ShardPartitionPolicy::kRoundRobin, dir)
        .status()
        .Abort("building an overlay deployment");
    if (dcount > 0) {
      auto overlay_coordinator = ingest::IngestCoordinator::Open(dir);
      overlay_coordinator.status().Abort("opening an overlay coordinator");
      (*overlay_coordinator)
          ->Append(tail_records(full.size() - dcount, full.size()))
          .Abort("appending the overlay delta");
      (*overlay_coordinator)
          ->Publish()
          .status()
          .Abort("publishing the overlay");
    }
    auto manifest_path = ingest::ResolveManifestPath(dir);
    manifest_path.status().Abort("resolving the overlay deployment");
    auto sharded = ShardedSketchIndex::Load(*manifest_path);
    sharded.status().Abort("loading the overlay deployment");
    auto check = TopKJoinMISearch(*query_table, {"K", "Y"}, *sharded,
                                  params.top_k, threads);
    check.status().Abort("overlay search");
    ExpectSameRanking(*reference, *check, "delta-overlay and full-index");
    overlays.push_back(std::move(*sharded));
  }
  std::vector<std::function<void()>> overlay_legs;
  for (const ShardedSketchIndex& overlay : overlays) {
    overlay_legs.push_back([&] {
      TopKJoinMISearch(*query_table, {"K", "Y"}, overlay, params.top_k,
                       threads)
          .status()
          .Abort("overlay search");
    });
  }
  const auto overlay_times = TimeLegs(overlay_legs);
  std::vector<double> overlay_ms;
  for (size_t i = 0; i < fractions.size(); ++i) {
    overlay_ms.push_back(Median(overlay_times[i]));
    std::printf("delta %s%%    : %8.3f ms/query (%zu of %zu candidates in "
                "JMDS sidecars)\n",
                fractions[i].first, overlay_ms[i], fractions[i].second,
                full.size());
  }
  const double overlay_ratio = MedianRatio(overlay_times[2], overlay_times[0]);
  std::printf("overlay cost : 50%%-delta runs %.2fx the compacted "
              "deployment\n",
              overlay_ratio);

  RecordMetric("part10_candidates", static_cast<double>(full.size()));
  RecordMetric("part10_steady_ms_per_query", steady_ms);
  RecordMetric("part10_during_ingest_ms_per_query", during_ms);
  RecordMetric("part10_ingest_slowdown", slowdown);
  RecordMetric("part10_reload_ms", reload_ms);
  RecordMetric("part10_overlay_delta00_ms_per_query", overlay_ms[0]);
  RecordMetric("part10_overlay_delta25_ms_per_query", overlay_ms[1]);
  RecordMetric("part10_overlay_delta50_ms_per_query", overlay_ms[2]);
  RecordMetric("part10_overlay_cost_ratio", overlay_ratio);

  std::error_code cleanup_error;
  std::filesystem::remove_all(root, cleanup_error);
}

int Run(size_t threads, bool smoke) {
  const BenchParams params = smoke ? SmokeParams() : BenchParams{};
  std::printf("top-k discovery throughput%s — base %zu rows, %zu candidate "
              "tables x %zu rows, sketch n=%zu, k=%zu\n\n",
              smoke ? " (smoke mode)" : "", params.base_rows,
              params.candidate_tables, params.candidate_rows,
              params.sketch_capacity, params.top_k);
  Rng rng(20240612);
  auto base = MakeBaseTable(params, &rng);
  TableRepository repository = MakeRepository(params, &rng);

  const double naive_ms = RunNaiveSerial(params, *base, repository);
  TopKSearchResult serial_result;
  const double engine1_ms =
      RunEngine(params, *base, repository, 1, &serial_result);
  TopKSearchResult parallel_result;
  const double engineN_ms =
      RunEngine(params, *base, repository, threads, &parallel_result);
  ExpectSameRanking(serial_result, parallel_result,
                    "1-thread and multi-thread");

  std::printf("\nspeedup vs naive serial: engine x1 %.2fx, engine x%zu "
              "%.2fx\n",
              naive_ms / engine1_ms, threads, naive_ms / engineN_ms);
  std::printf("thread scaling (engine x%zu vs x1): %.2fx\n", threads,
              engine1_ms / engineN_ms);
  RecordMetric("naive_serial_ms", naive_ms);
  RecordMetric("engine_x1_ms", engine1_ms);
  RecordMetric("engine_xT_ms", engineN_ms);

  RunPagedStorage(params, repository, threads, smoke, &rng);
  RunFrontTier(params, smoke, &rng);
  RunFlatHotPath(params, threads, smoke, &rng);
  RunOnlineIngest(params, repository, threads, smoke, &rng);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace joinmi

int main(int argc, char** argv) {
  long threads = 4;
  bool smoke = false;
  bool have_threads = false;
  bool usage_error = false;
  std::string json_path;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--smoke") == 0 && !smoke) {
      smoke = true;
      continue;
    }
    if (std::strcmp(argv[arg], "--json") == 0 && arg + 1 < argc &&
        json_path.empty()) {
      json_path = argv[++arg];
      continue;
    }
    char* end = nullptr;
    const long parsed = std::strtol(argv[arg], &end, 10);
    if (have_threads || end == argv[arg] || *end != '\0' || parsed < 1 ||
        parsed > 256) {
      usage_error = true;  // unknown flag, repeat, junk, or out of range
      break;
    }
    threads = parsed;
    have_threads = true;
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--json out.json] [threads 1..256]\n",
                 argv[0]);
    return 2;
  }
  std::vector<std::pair<std::string, double>> metrics;
  if (!json_path.empty()) joinmi::bench::g_metrics = &metrics;
  const int rc = joinmi::bench::Run(static_cast<size_t>(threads), smoke);
  if (rc == 0 && !json_path.empty()) {
    return joinmi::bench::WriteJsonReport(json_path,
                                          static_cast<size_t>(threads),
                                          smoke);
  }
  return rc;
}
