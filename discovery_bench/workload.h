// The workloads of bench_discovery and the pieces every workload shares:
// seeded data generation, deployment set-up, reference answers, and the
// load phases that time Router::Search through the public API.
//
// Every input derives from the run's --seed through opendata_sim; the
// system under test only ever sees the generated tables.

#ifndef JOINMI_DISCOVERY_BENCH_WORKLOAD_H_
#define JOINMI_DISCOVERY_BENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/router.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sketch_index.h"

namespace joinmi {
namespace dbench {

inline constexpr size_t kTopK = 10;
inline constexpr size_t kShards = 4;
/// What a failed request counts as when a latency percentile lands on it.
inline constexpr double kRequestTimeoutMs = 30000.0;

/// \brief The query configuration every workload serves: TUPSK, capacity
/// 256, min_join_size 20, first-value aggregation, automatic estimator.
JoinMIConfig BenchConfig();

struct WorkloadSpec {
  std::string name;
  /// Candidate tables: `domains` disjoint key domains, each with
  /// `tables_per_domain` tables of about `table_rows` rows.
  size_t domains = 1;
  size_t tables_per_domain = 0;
  size_t table_rows = 1000;
  /// Query tables per domain, of about `query_rows` rows each.
  size_t queries_per_domain = 0;
  size_t query_rows = 0;
  /// Ingest: only the first `base_tables` tables (0 = all) are served at
  /// set-up; the rest arrive in batches of `batch_tables`, one batch due
  /// every `seconds / batches`, and every `compact_every`-th batch
  /// compacts instead of publishing.
  size_t base_tables = 0;
  size_t batch_tables = 0;
  size_t compact_every = 0;
  /// Serving: paged shards behind in-process ShardServers on loopback
  /// (else whole-file shards loaded in the router's process).
  bool remote_paged = false;
  size_t pool_pages = 64;
  /// Load: one closed-loop client when `rate` is 0, else an open loop of
  /// `rate` requests/s sent by `senders` threads.
  double rate = 0.0;
  size_t senders = 1;
  /// Query popularity: Zipf(s) over the query tables, or (0) a seeded
  /// shuffle of them, cycled.
  double zipf_s = 0.0;
  /// Goodput counts only successes within this latency (0 = all).
  double latency_limit_ms = 0.0;

  size_t num_tables() const { return domains * tables_per_domain; }
  size_t served_tables() const {
    return base_tables == 0 ? num_tables() : base_tables;
  }
  size_t num_batches() const {
    return batch_tables == 0
               ? 0
               : (num_tables() - served_tables() + batch_tables - 1) /
                     batch_tables;
  }
};

/// \brief The named workload, or nullopt. `smoke` shrinks every size so a
/// run takes about a second.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool smoke);
/// \brief Every workload name, in the order runs report them.
std::vector<std::string> WorkloadNames();

struct NamedTable {
  std::string name;
  std::shared_ptr<Table> table;
};

struct WorkloadData {
  /// Candidate tables in ascending name order, which is the order a
  /// repository enumerates them, so a prefix of this list is a prefix of
  /// the global candidate order.
  std::vector<NamedTable> tables;
  std::vector<std::shared_ptr<Table>> queries;
  /// Request i asks query stream[i % stream.size()].
  std::vector<size_t> stream;
  /// The run's seed, for randomness the load phases draw (arrivals).
  uint64_t seed = 0;

  size_t QueryAt(size_t request) const {
    return stream[request % stream.size()];
  }
};

Result<WorkloadData> GenerateData(const WorkloadSpec& spec, uint64_t seed);

/// \brief A repository of tables [begin, end).
TableRepository MakeRepository(const WorkloadData& data, size_t begin,
                               size_t end);

/// \brief Expected answers: every query's estimate against every candidate
/// of the from-scratch unsharded SketchIndex over all tables, in global
/// insertion order. The expected answer on a deployment serving the first
/// n candidates is the top-k of the first n estimates by (MI desc, global
/// index asc), which is what an unsharded index of those n returns.
class Reference {
 public:
  static Result<Reference> Build(const SketchIndex& full,
                                 const std::vector<std::shared_ptr<Table>>&
                                     queries);

  size_t num_candidates() const { return refs_.size(); }
  const ColumnPairRef& ref(size_t candidate) const {
    return refs_[candidate];
  }

  /// The answer a deployment serving the first `prefix` candidates owes.
  TopKSearchResult Expected(size_t query, size_t prefix) const;

  /// Empty when `got` equals the expected answer for query `query` bit for
  /// bit (refs, MI doubles, sample sizes, estimators, order, counters);
  /// otherwise what differs. The prefix is read from got.num_candidates.
  std::string Diff(size_t query, const TopKSearchResult& got) const;

 private:
  std::vector<ColumnPairRef> refs_;
  std::vector<std::vector<std::optional<JoinMIEstimate>>> estimates_;
};

struct SetupTimes {
  double index_build_s = 0.0;
  double build_shards_s = 0.0;
  double open_s = 0.0;

  double total_s() const { return index_build_s + build_shards_s + open_s; }
};

/// \brief One served deployment. Members are declared so that the router
/// closes before the servers it talks to.
struct Deployment {
  explicit Deployment(const std::string& dir);

  ScratchDir scratch;
  /// The deployment directory the router and servers open.
  std::string deploy_dir;
  /// The unsharded index the shards were cut from.
  SketchIndex index;
  std::vector<std::unique_ptr<ShardServer>> servers;
  RouterOptions router_options;
  std::unique_ptr<Router> router;
  SetupTimes times;
};

/// \brief Sketches `base`, cuts it into kShards shard files, starts the
/// shard servers a remote workload needs and opens the router: everything
/// between generated tables and the first request.
Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                          const TableRepository& base,
                                          const std::string& dir);

/// \brief One request of a load phase; times are relative to the phase
/// start, in ms.
struct RequestRecord {
  size_t query = 0;
  bool ok = false;
  bool traced = false;
  /// Measured from the send (closed loop) or the due time (open loop).
  double latency_ms = 0.0;
  /// Open loop: how late the sender ran.
  double late_ms = 0.0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Candidates the answer covered (which generation served it).
  size_t served = 0;
};

/// \brief What the ingest writer did, batch by batch.
struct IngestRecord {
  size_t tables = 0;
  double busy_s = 0.0;
  std::vector<double> sketch_ms_per_table;
  std::vector<double> append_ms;
  std::vector<double> publish_ms;
  std::vector<double> compact_ms;
  std::vector<double> reload_ms;
  std::vector<double> visible_ms;
  std::vector<double> late_ms;
  /// [start, end) of each compaction, relative to the phase start.
  std::vector<std::pair<double, double>> compactions_ms;
  uint64_t sketch_bytes = 0;
  uint64_t bytes_written = 0;
  /// (candidates served, share of them living in deltas) per generation.
  std::vector<std::pair<uint64_t, double>> delta_share;
};

struct PhaseResult {
  std::vector<RequestRecord> records;
  double wall_s = 0.0;
  RouterCacheStats cache_before;
  RouterCacheStats cache_after;
  /// The first wrong answer, empty when every answer matched.
  std::string wrong;
  std::optional<IngestRecord> ingest;
};

/// \brief Settings shared by the load phases.
struct PhaseOptions {
  double seconds = 10.0;
  /// Next stream position to ask; advanced by the phase.
  size_t* cursor = nullptr;
  /// Spans for every other request (traced runs only).
  Tracer* tracer = nullptr;
  /// Ingest phases: the writer paces batches over `seconds` unless this is
  /// false, in which case it runs them back to back.
  bool paced_writer = true;
};

/// \brief Runs the workload's load against `deployment` for
/// `options.seconds`: one closed-loop client, the open loop, or (ingest
/// workloads) a closed-loop reader beside the ingest writer. Every answer
/// is checked against `reference`; a wrong one stops the phase.
PhaseResult RunPhase(const WorkloadSpec& spec, const WorkloadData& data,
                     Deployment& deployment, const Reference& reference,
                     const PhaseOptions& options);

/// \brief Untimed closed-loop requests until both `min_requests` were sent
/// and `min_seconds` passed, so caches fill and every core is busy before
/// timing starts.
PhaseResult WarmUp(const WorkloadData& data, Deployment& deployment,
                   const Reference& reference, size_t* cursor,
                   size_t min_requests, double min_seconds);

/// \brief Latency quantile over `records`, where a failed request ranks
/// after every success and reads as kRequestTimeoutMs.
double LatencyQuantile(const std::vector<RequestRecord>& records, double q);

}  // namespace dbench
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_BENCH_WORKLOAD_H_
