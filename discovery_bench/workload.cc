#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/discovery/opendata_sim.h"
#include "src/discovery/paged_shard_index.h"
#include "src/ingest/coordinator.h"
#include "src/sketch/serialize.h"

namespace joinmi {
namespace dbench {

JoinMIConfig BenchConfig() {
  JoinMIConfig config;
  config.sketch_method = SketchMethod::kTupsk;
  config.sketch_capacity = 256;
  config.min_join_size = 20;
  config.aggregation = AggKind::kFirst;
  return config;
}

namespace {

// Why each workload exists is recorded in README.md and BENCHMARK.json;
// the sizes below are the ones those documents state.
std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec dense;
  dense.name = "dense_join";
  dense.tables_per_domain = 1000;
  dense.queries_per_domain = 160;  // > the 128-entry cache: no hits
  dense.query_rows = 9000;

  WorkloadSpec sparse;
  sparse.name = "sparse_lake";
  sparse.domains = 16;
  sparse.tables_per_domain = 64;
  sparse.queries_per_domain = 10;
  sparse.query_rows = 2000;

  // Not in BENCHMARK.json: a v2 connection rejects the 9th distinct query
  // sketch for good, so most of this workload's requests fail until that
  // is fixed (README.md, finding b).
  WorkloadSpec remote = dense;
  remote.name = "serve_remote";
  remote.queries_per_domain = 256;
  remote.remote_paged = true;
  remote.rate = 40.0;
  remote.senders = 4;
  remote.zipf_s = 1.1;
  remote.latency_limit_ms = 250.0;

  WorkloadSpec ingest;
  ingest.name = "ingest_serve";
  ingest.tables_per_domain = 864;
  ingest.base_tables = 480;
  ingest.batch_tables = 32;
  ingest.compact_every = 4;
  ingest.queries_per_domain = 160;
  ingest.query_rows = 9000;

  return {dense, sparse, remote, ingest};
}

WorkloadSpec Shrink(WorkloadSpec spec) {
  spec.tables_per_domain =
      std::max<size_t>(24, spec.tables_per_domain / (spec.domains * 40));
  spec.table_rows = 300;
  spec.query_rows = std::min<size_t>(spec.query_rows, 1000);
  spec.queries_per_domain = std::min<size_t>(spec.queries_per_domain, 8);
  if (spec.base_tables > 0) {
    spec.base_tables = spec.tables_per_domain - 16;
    spec.batch_tables = 4;
    spec.compact_every = 2;
  }
  spec.pool_pages = 4;
  return spec;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed ^ Mix64(stream + 0x9E3779B97F4A7C15ULL));
}

template <typename T>
void SeededShuffle(std::vector<T>* values, Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->NextBounded(i)]);
  }
}

// Latent families per key domain (opendata_sim): a query and a candidate
// of the same family are related through their shared keys, so each query
// has real top answers among the candidates.
constexpr size_t kFamilies = 8;

// Tables of one domain, by the type of their value column.
struct DomainTables {
  std::vector<std::shared_ptr<Table>> strings;
  std::vector<std::shared_ptr<Table>> numerics;
};

// `count` tables of one key domain: the query side (K, Y) or the candidate
// side (K, Z), each with exactly `rows` rows. Both sides of a domain are
// drawn from collections with the domain's seed, which gives them the same
// latent families. A fixed 45% carry a string value column and the rest a
// numeric one (the open-data preset's mix). Fixed kinds and row counts
// keep the cost of a query from drifting with the seed.
Result<DomainTables> MakeTables(const std::string& domain, size_t count,
                                size_t rows, bool query_side,
                                uint64_t seed) {
  const size_t strings = (count * 45 + 50) / 100;
  OpenDataParams params = NYCLikeParams();
  params.name = domain;
  params.seed = seed;
  params.num_families = kFamilies;
  // The unused side of each generated pair is kept to a couple of rows.
  params.left_rows = query_side ? rows : 2;
  params.right_rows = query_side ? 2 : rows;
  // Pair p of a collection does not depend on how many pairs follow it, so
  // drawing more pairs until both kinds suffice stays deterministic.
  for (params.num_pairs = count + count / 4 + 16;; params.num_pairs *= 2) {
    JOINMI_ASSIGN_OR_RETURN(std::vector<GeneratedTablePair> pairs,
                            GenerateOpenDataCollection(params));
    DomainTables out;
    for (const GeneratedTablePair& pair : pairs) {
      const bool is_string =
          (query_side ? pair.target_type : pair.feature_type) ==
          DataType::kString;
      auto& kind = is_string ? out.strings : out.numerics;
      if (kind.size() == (is_string ? strings : count - strings)) continue;
      // The generator varies row counts by +-50%; repeat or cut the rows
      // to exactly `rows`.
      const Table& table = query_side ? *pair.train : *pair.cand;
      std::vector<size_t> take(rows);
      for (size_t r = 0; r < rows; ++r) take[r] = r % table.num_rows();
      JOINMI_ASSIGN_OR_RETURN(std::shared_ptr<Table> resized,
                              table.Take(take));
      kind.push_back(std::move(resized));
    }
    if (out.strings.size() == strings &&
        out.numerics.size() == count - strings) {
      return out;
    }
  }
}

// Interleaves the two kinds in a fixed pattern (the kind of position i
// does not depend on the seed); the seed picks which table of a kind goes
// where.
std::vector<std::shared_ptr<Table>> Interleave(DomainTables kinds, Rng* rng) {
  SeededShuffle(&kinds.strings, rng);
  SeededShuffle(&kinds.numerics, rng);
  const size_t total = kinds.strings.size() + kinds.numerics.size();
  std::vector<std::shared_ptr<Table>> out;
  size_t s = 0;
  size_t n = 0;
  for (size_t i = 0; i < total; ++i) {
    // Take a string table whenever strings are behind their share.
    const bool take_string = n == kinds.numerics.size() ||
                             (s < kinds.strings.size() &&
                              s * total < (i + 1) * kinds.strings.size());
    out.push_back(take_string ? kinds.strings[s++] : kinds.numerics[n++]);
  }
  return out;
}

std::string DomainName(const WorkloadSpec& spec, size_t domain) {
  if (spec.domains == 1) return "NYC";
  char name[32];
  std::snprintf(name, sizeof(name), "D%02zu", domain);
  return name;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         bool smoke) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return smoke ? Shrink(spec) : spec;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

Result<WorkloadData> GenerateData(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadData data;
  data.seed = seed;
  Rng rng(SubSeed(seed, 300));
  for (size_t d = 0; d < spec.domains; ++d) {
    const std::string domain = DomainName(spec, d);
    const uint64_t domain_seed = SubSeed(seed, 100 + d);
    JOINMI_ASSIGN_OR_RETURN(
        DomainTables tables,
        MakeTables(domain, spec.tables_per_domain, spec.table_rows,
                   /*query_side=*/false, domain_seed));
    std::vector<std::shared_ptr<Table>> ordered =
        Interleave(std::move(tables), &rng);
    for (size_t t = 0; t < ordered.size(); ++t) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s-t%05zu", domain.c_str(), t);
      data.tables.push_back(NamedTable{name, std::move(ordered[t])});
    }
    JOINMI_ASSIGN_OR_RETURN(
        DomainTables queries,
        MakeTables(domain, spec.queries_per_domain, spec.query_rows,
                   /*query_side=*/true, domain_seed));
    for (auto& query : Interleave(std::move(queries), &rng)) {
      data.queries.push_back(std::move(query));
    }
  }
  // Queries stay in their interleaved order: position i of the stream's
  // cycle, or popularity rank i + 1, always holds the same kind of query.
  if (spec.zipf_s == 0.0) {
    data.stream.resize(data.queries.size());
    for (size_t q = 0; q < data.stream.size(); ++q) data.stream[q] = q;
  } else {
    // Each request draws popularity rank r with probability proportional
    // to r^-s.
    std::vector<double> cdf(data.queries.size());
    double total = 0.0;
    for (size_t r = 0; r < cdf.size(); ++r) {
      total += std::pow(static_cast<double>(r + 1), -spec.zipf_s);
      cdf[r] = total;
    }
    data.stream.resize(size_t{1} << 15);
    for (size_t& query : data.stream) {
      const double u = rng.Uniform(0.0, total);
      query = std::min<size_t>(
          cdf.size() - 1,
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    }
  }
  return data;
}

TableRepository MakeRepository(const WorkloadData& data, size_t begin,
                               size_t end) {
  TableRepository repository;
  for (size_t t = begin; t < end && t < data.tables.size(); ++t) {
    repository.AddTable(data.tables[t].name, data.tables[t].table)
        .Abort("registering a generated table");
  }
  return repository;
}

// ---------------------------------------------------------------- Reference

Result<Reference> Reference::Build(
    const SketchIndex& full,
    const std::vector<std::shared_ptr<Table>>& queries) {
  Reference reference;
  reference.refs_.reserve(full.size());
  for (const IndexedCandidate& candidate : full.candidates()) {
    reference.refs_.push_back(candidate.ref);
  }
  reference.estimates_.resize(queries.size());
  std::vector<Status> statuses(queries.size(), Status::OK());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t q = next++; q < queries.size(); q = next++) {
      auto query = JoinMIQuery::Create(*queries[q], "K", "Y", full.config());
      if (!query.ok()) {
        statuses[q] = query.status();
        continue;
      }
      auto evaluation = full.EvaluateAll(*query, /*num_threads=*/1);
      if (!evaluation.ok()) {
        statuses[q] = evaluation.status();
      } else if (evaluation->num_errors > 0) {
        statuses[q] = Status::UnknownError(
            "reference evaluation of query " + std::to_string(q) + " hit " +
            std::to_string(evaluation->num_errors) + " candidate errors");
      } else {
        reference.estimates_[q] = std::move(evaluation->estimates);
      }
    }
  };
  std::vector<std::thread> threads;
  const size_t workers = std::min<size_t>(
      queries.size(), std::max(1u, std::thread::hardware_concurrency()));
  for (size_t t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : statuses) JOINMI_RETURN_NOT_OK(status);
  return reference;
}

TopKSearchResult Reference::Expected(size_t query, size_t prefix) const {
  const std::vector<std::optional<JoinMIEstimate>>& estimates =
      estimates_[query];
  TopKSearchResult result;
  result.num_candidates = prefix;
  std::vector<size_t> present;
  for (size_t i = 0; i < prefix; ++i) {
    if (estimates[i].has_value()) present.push_back(i);
  }
  result.num_evaluated = present.size();
  result.num_skipped = prefix - present.size();
  const size_t take = std::min(kTopK, present.size());
  std::partial_sort(present.begin(), present.begin() + take, present.end(),
                    [&estimates](size_t a, size_t b) {
                      if (estimates[a]->mi != estimates[b]->mi) {
                        return estimates[a]->mi > estimates[b]->mi;
                      }
                      return a < b;
                    });
  for (size_t r = 0; r < take; ++r) {
    result.hits.push_back(SearchHit{refs_[present[r]], *estimates[present[r]]});
  }
  return result;
}

std::string Reference::Diff(size_t query, const TopKSearchResult& got) const {
  if (got.num_candidates > refs_.size()) {
    return "answer covers " + std::to_string(got.num_candidates) +
           " candidates; the reference knows " +
           std::to_string(refs_.size());
  }
  const TopKSearchResult want = Expected(query, got.num_candidates);
  auto counters = [](const TopKSearchResult& r) {
    return std::to_string(r.num_candidates) + "/" +
           std::to_string(r.num_evaluated) + "/" +
           std::to_string(r.num_skipped) + "/" + std::to_string(r.num_errors);
  };
  if (counters(got) != counters(want) || !got.shard_failures.empty()) {
    return "counters (candidates/evaluated/skipped/errors) " + counters(got) +
           " vs reference " + counters(want) + ", " +
           std::to_string(got.shard_failures.size()) + " shard failures";
  }
  if (got.hits.size() != want.hits.size()) {
    return std::to_string(got.hits.size()) + " hits vs reference " +
           std::to_string(want.hits.size());
  }
  for (size_t i = 0; i < want.hits.size(); ++i) {
    const SearchHit& a = got.hits[i];
    const SearchHit& b = want.hits[i];
    const bool same =
        a.candidate.ToString() == b.candidate.ToString() &&
        std::memcmp(&a.estimate.mi, &b.estimate.mi, sizeof(double)) == 0 &&
        a.estimate.sample_size == b.estimate.sample_size &&
        a.estimate.estimator == b.estimate.estimator &&
        a.estimate.sketched == b.estimate.sketched;
    if (!same) {
      char mi[96];
      std::snprintf(mi, sizeof(mi), "MI %.17g vs %.17g", a.estimate.mi,
                    b.estimate.mi);
      return "hit " + std::to_string(i) + ": " + a.candidate.ToString() +
             " vs reference " + b.candidate.ToString() + ", " + mi;
    }
  }
  return "";
}

// --------------------------------------------------------------- Deployment

Deployment::Deployment(const std::string& dir)
    : scratch(dir), deploy_dir(dir + "/deploy"), index(BenchConfig()) {}

Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                          const TableRepository& base,
                                          const std::string& dir) {
  auto deployment = std::make_unique<Deployment>(dir);
  Clock::time_point start = Clock::now();
  JOINMI_RETURN_NOT_OK(deployment->index.IndexRepository(base).status());
  deployment->times.index_build_s = SecondsSince(start);

  start = Clock::now();
  ShardBuildOptions build;
  if (spec.remote_paged) build.format = ShardFileFormat::kPaged;
  JOINMI_RETURN_NOT_OK(BuildShards(deployment->index, kShards,
                                   ShardPartitionPolicy::kRoundRobin,
                                   deployment->deploy_dir, build)
                           .status());
  deployment->times.build_shards_s = SecondsSince(start);

  start = Clock::now();
  RouterOptions& options = deployment->router_options;
  options.manifest_path = deployment->deploy_dir;
  options.serving.pool_size = 1;
  if (spec.remote_paged) {
    for (size_t s = 0; s < kShards; ++s) {
      ShardServerOptions server_options;
      server_options.num_workers = 1;
      server_options.eval_threads = 1;
      server_options.pool_pages = spec.pool_pages;
      server_options.require_paged = true;
      JOINMI_ASSIGN_OR_RETURN(
          std::unique_ptr<ShardServer> server,
          ShardServer::Create(deployment->deploy_dir, s, server_options));
      JOINMI_RETURN_NOT_OK(server->Start());
      options.replica_endpoints.push_back(
          {ShardEndpoint{server->host(), server->port()}});
      deployment->servers.push_back(std::move(server));
    }
  }
  JOINMI_ASSIGN_OR_RETURN(deployment->router, Router::Open(options));
  deployment->times.open_s = SecondsSince(start);
  return deployment;
}

// ---------------------------------------------------------------- Load

namespace {

// State one load phase shares across its client threads.
class Phase {
 public:
  Phase(const Router& router, const WorkloadData& data,
        const Reference& reference, Tracer* tracer)
      : router_(router), data_(data), reference_(reference),
        tracer_(tracer) {}

  Clock::time_point start() const { return start_; }
  double ElapsedS() const { return SecondsSince(start_); }
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  // Asks the query of stream position `request`, which was due at `due`,
  // and checks the answer. Traced runs trace every other request.
  RequestRecord Send(size_t request, Clock::time_point due) {
    const size_t query = data_.QueryAt(request);
    const bool traced = tracer_ != nullptr && request % 2 == 1;
    const Clock::time_point sent = Clock::now();
    Result<TopKSearchResult> answer =
        traced ? TracedSearch(request, *data_.queries[query])
               : router_.Search(*data_.queries[query], {"K", "Y"}, kTopK);
    const Clock::time_point done = Clock::now();
    RequestRecord record;
    record.query = query;
    record.ok = answer.ok();
    record.traced = traced;
    record.latency_ms = MillisBetween(due, done);
    record.late_ms = std::max(0.0, MillisBetween(due, sent));
    record.start_ms = MillisBetween(start_, sent);
    record.end_ms = MillisBetween(start_, done);
    if (!answer.ok()) {
      if (!logged_failure_.exchange(true)) {
        std::fprintf(stderr, "request %zu failed: %s\n", request,
                     answer.status().ToString().c_str());
      }
    } else {
      record.served = answer->num_candidates;
      const std::string diff = reference_.Diff(query, *answer);
      if (!diff.empty()) {
        Fail("wrong answer to request " + std::to_string(request) +
             " (query " + std::to_string(query) + "): " + diff);
      }
    }
    return record;
  }

  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (wrong_.empty()) wrong_ = message;
    stopped_ = true;
  }

  std::string wrong() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return wrong_;
  }

 private:
  // Router::Search split into its two public calls, one span each.
  Result<TopKSearchResult> TracedSearch(size_t request, const Table& table) {
    const size_t root = tracer_->Begin(request, "query");
    const size_t build = tracer_->Begin(request, "sketch.query_build", root);
    auto query =
        JoinMIQuery::Create(table, "K", "Y", router_.search_config());
    tracer_->End(build);
    if (!query.ok()) {
      tracer_->End(root);
      return query.status();
    }
    const size_t search =
        tracer_->Begin(request, "router.search_query", root);
    auto answer =
        router_.SearchQuery(*query, kTopK, 0, ShardQueryMode::kStrict);
    tracer_->End(search);
    tracer_->End(root);
    return answer;
  }

  const Router& router_;
  const WorkloadData& data_;
  const Reference& reference_;
  Tracer* const tracer_;
  const Clock::time_point start_ = Clock::now();
  std::atomic<bool> stopped_{false};
  std::atomic<bool> logged_failure_{false};
  mutable std::mutex mutex_;
  std::string wrong_;
};

void ClosedLoop(Phase& phase, size_t* cursor,
                const std::function<bool()>& keep_going,
                std::vector<RequestRecord>* records) {
  while (!phase.stopped() && keep_going()) {
    records->push_back(phase.Send((*cursor)++, Clock::now()));
  }
}

// Arrival offsets (ms) of an open loop: `count` uniform draws over the
// window, sorted, which is a Poisson process conditioned on its count. A
// fixed count keeps the offered load identical across seeds.
std::vector<double> Arrivals(size_t count, double seconds, uint64_t seed) {
  Rng rng(SubSeed(seed, 400));
  std::vector<double> due(count);
  for (double& ms : due) ms = rng.Uniform(0.0, seconds * 1000.0);
  std::sort(due.begin(), due.end());
  return due;
}

void OpenLoop(Phase& phase, const WorkloadSpec& spec,
              const WorkloadData& data, double seconds, size_t* cursor,
              std::vector<RequestRecord>* records) {
  const size_t count =
      static_cast<size_t>(std::llround(spec.rate * seconds));
  const std::vector<double> due_ms = Arrivals(count, seconds, data.seed);
  std::vector<RequestRecord> slots(count);
  std::vector<char> sent(count, 0);
  std::atomic<size_t> next{0};
  const size_t first = *cursor;
  auto sender = [&] {
    for (size_t i = next++; i < count && !phase.stopped(); i = next++) {
      const Clock::time_point due =
          phase.start() + std::chrono::microseconds(
                              static_cast<int64_t>(due_ms[i] * 1000.0));
      std::this_thread::sleep_until(due);
      slots[i] = phase.Send(first + i, due);
      sent[i] = 1;
    }
  };
  std::vector<std::thread> senders;
  for (size_t t = 0; t < spec.senders; ++t) senders.emplace_back(sender);
  for (std::thread& thread : senders) thread.join();
  *cursor += count;
  for (size_t i = 0; i < count; ++i) {
    if (sent[i]) records->push_back(slots[i]);
  }
}

// The ingest writer: each batch is sketched through IndexRepository,
// appended, then published (or, every compact_every-th batch, compacted)
// and made visible with Router::Reload.
void IngestWriter(Phase& phase, const WorkloadSpec& spec,
                  const WorkloadData& data, Deployment& deployment,
                  double seconds, bool paced, IngestRecord* out) {
  auto coordinator = ingest::IngestCoordinator::Open(deployment.deploy_dir);
  if (!coordinator.ok()) {
    phase.Fail("ingest: " + coordinator.status().ToString());
    return;
  }
  const uint64_t bytes_before = DirectoryBytes(deployment.deploy_dir);
  const size_t batches = spec.num_batches();
  const double interval_ms =
      paced && batches > 0 ? seconds * 1000.0 / static_cast<double>(batches)
                           : 0.0;
  Router& router = *deployment.router;
  for (size_t b = 0; b < batches && !phase.stopped(); ++b) {
    const Clock::time_point due =
        phase.start() + std::chrono::microseconds(static_cast<int64_t>(
                            interval_ms * 1000.0 * static_cast<double>(b)));
    std::this_thread::sleep_until(due);
    const Clock::time_point begin = Clock::now();
    out->late_ms.push_back(std::max(0.0, MillisBetween(due, begin)));
    const size_t first = spec.served_tables() + b * spec.batch_tables;
    const size_t last =
        std::min(first + spec.batch_tables, data.tables.size());

    SketchIndex batch(BenchConfig());
    const Clock::time_point sketch_start = Clock::now();
    Status status = batch.IndexRepository(MakeRepository(data, first, last))
                        .status();
    const double sketch_ms = MillisSince(sketch_start);
    std::vector<CandidateRecord> records;
    for (const IndexedCandidate& candidate : batch.candidates()) {
      records.push_back(CandidateRecord{candidate.ref, candidate.sketch()});
      out->sketch_bytes += SerializeSketch(candidate.sketch()).size();
    }
    const Clock::time_point append_start = Clock::now();
    if (status.ok()) status = (*coordinator)->Append(records);
    const double append_ms = MillisSince(append_start);

    const bool compact =
        spec.compact_every > 0 && (b + 1) % spec.compact_every == 0;
    const Clock::time_point publish_start = Clock::now();
    Result<uint64_t> epoch = uint64_t{0};
    if (status.ok()) {
      epoch = compact ? (*coordinator)->Compact() : (*coordinator)->Publish();
      status = epoch.status();
    }
    const double publish_ms = MillisSince(publish_start);
    const Clock::time_point reload_start = Clock::now();
    if (status.ok()) status = router.Reload();
    if (status.ok() && router.epoch() != *epoch) {
      status = Status::UnknownError("router serves epoch " +
                               std::to_string(router.epoch()) +
                               " after publishing " + std::to_string(*epoch));
    }
    const Clock::time_point visible = Clock::now();
    if (!status.ok()) {
      phase.Fail("ingest batch " + std::to_string(b) + ": " +
                 status.ToString());
      return;
    }
    out->tables += last - first;
    out->sketch_ms_per_table.push_back(sketch_ms /
                                       static_cast<double>(last - first));
    out->append_ms.push_back(append_ms);
    out->reload_ms.push_back(MillisBetween(reload_start, visible));
    if (compact) {
      out->compact_ms.push_back(publish_ms);
      out->compactions_ms.emplace_back(
          MillisBetween(phase.start(), publish_start),
          MillisBetween(phase.start(), visible));
    } else {
      out->publish_ms.push_back(publish_ms);
      out->visible_ms.push_back(MillisBetween(publish_start, visible));
    }
    const ShardManifest& manifest = (*coordinator)->manifest();
    uint64_t in_deltas = 0;
    for (const ShardManifestEntry& entry : manifest.shards) {
      in_deltas += entry.delta_records;
    }
    out->delta_share.emplace_back(
        manifest.total_candidates,
        static_cast<double>(in_deltas) /
            static_cast<double>(
                std::max<uint64_t>(1, manifest.total_candidates)));
    out->busy_s += SecondsSince(begin);
  }
  out->bytes_written = DirectoryBytes(deployment.deploy_dir) - bytes_before;
}

}  // namespace

PhaseResult RunPhase(const WorkloadSpec& spec, const WorkloadData& data,
                     Deployment& deployment, const Reference& reference,
                     const PhaseOptions& options) {
  PhaseResult result;
  result.cache_before = deployment.router->cache_stats();
  Phase phase(*deployment.router, data, reference, options.tracer);
  if (spec.batch_tables > 0) {
    IngestRecord ingest;
    std::atomic<bool> writer_done{false};
    std::thread reader([&] {
      ClosedLoop(
          phase, options.cursor,
          [&] {
            return phase.ElapsedS() < options.seconds || !writer_done.load();
          },
          &result.records);
    });
    IngestWriter(phase, spec, data, deployment, options.seconds,
                 options.paced_writer, &ingest);
    writer_done = true;
    reader.join();
    result.ingest = std::move(ingest);
  } else if (spec.rate > 0.0) {
    OpenLoop(phase, spec, data, options.seconds, options.cursor,
             &result.records);
  } else {
    ClosedLoop(
        phase, options.cursor,
        [&] { return phase.ElapsedS() < options.seconds; }, &result.records);
  }
  result.wall_s = phase.ElapsedS();
  result.cache_after = deployment.router->cache_stats();
  result.wrong = phase.wrong();
  return result;
}

PhaseResult WarmUp(const WorkloadData& data, Deployment& deployment,
                   const Reference& reference, size_t* cursor,
                   size_t min_requests, double min_seconds) {
  PhaseResult result;
  Phase phase(*deployment.router, data, reference, nullptr);
  ClosedLoop(
      phase, cursor,
      [&] {
        return result.records.size() < min_requests ||
               phase.ElapsedS() < min_seconds;
      },
      &result.records);
  result.wall_s = phase.ElapsedS();
  result.wrong = phase.wrong();
  return result;
}

double LatencyQuantile(const std::vector<RequestRecord>& records, double q) {
  if (records.empty()) return 0.0;
  std::vector<double> ok;
  for (const RequestRecord& record : records) {
    if (record.ok) ok.push_back(record.latency_ms);
  }
  std::sort(ok.begin(), ok.end());
  const double rank = std::ceil(q * static_cast<double>(records.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return index < ok.size() ? ok[index] : kRequestTimeoutMs;
}

}  // namespace dbench
}  // namespace joinmi
