// bench_discovery: the discovery benchmark. One run executes one workload
// in this process: it generates the workload's tables from --seed,
// computes the reference answer of every query from the unsharded
// in-memory index, sets the deployment up three times (set-up time is the
// median), warms up, then times Router::Search (the call
// examples/dataset_search makes) for --seconds, checking every answer bit
// for bit.
//
//   bench_discovery --workload NAME [--seed N] [--seconds S] [--json OUT]
//                   [--trace SPANS] [--work-dir DIR] [--commit ID]
//   bench_discovery --smoke [--work-dir DIR]
//
// Without --trace the run reports the end-to-end metrics. With --trace it
// traces every other request, then times each layer's public calls from
// the outside (layers.h), reports the per-layer metrics and writes the
// spans to SPANS. --smoke runs every workload at tiny sizes, untraced and
// traced, with the same answer checks.
//
// Exit codes: 0 ok, 1 a step failed, 2 usage, 3 a wrong answer.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "workload.h"
#include "src/sketch/serialize.h"

namespace joinmi {
namespace dbench {
namespace {

constexpr int kSetups = 3;
constexpr size_t kWarmupRequests = 32;
// Idle cores of a virtual machine can take seconds to come back to full
// speed; the warm-up keeps every core busy at least this long.
constexpr double kWarmupSeconds = 4.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string spans_path;
  bool traced = false;
  /// Default: beside the binary, inside the build directory.
  std::string work_dir;
  std::string commit = "unknown";
  bool smoke = false;
  double warmup_seconds = kWarmupSeconds;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--json OUT] [--trace SPANS] [--work-dir DIR] "
               "[--commit ID]\n"
               "       %s --smoke [--work-dir DIR]\n",
               argv0, argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--trace") {
      args->spans_path = value;
      args->traced = true;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  if (args->work_dir.empty()) {
    std::error_code error;
    const std::filesystem::path binary =
        std::filesystem::read_symlink("/proc/self/exe", error);
    if (error) return false;
    args->work_dir = (binary.parent_path() / "bench-discovery-work").string();
  }
  return args->smoke != !args->workload.empty();
}

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> sizes;
  std::vector<std::pair<std::string, double>> info;
  size_t attempted = 0;
  size_t failed = 0;
};

void EndToEndMetrics(const WorkloadSpec& spec, const PhaseResult& phase,
                     const std::vector<SetupTimes>& setups,
                     Outcome* outcome) {
  const std::vector<RequestRecord>& records = phase.records;
  size_t good = 0;
  for (const RequestRecord& record : records) {
    if (record.ok && (spec.latency_limit_ms == 0.0 ||
                      record.latency_ms <= spec.latency_limit_ms)) {
      ++good;
    }
  }
  std::vector<double> setup_s;
  for (const SetupTimes& times : setups) setup_s.push_back(times.total_s());
  outcome->metrics = {
      {"query_p50_ms", LatencyQuantile(records, 0.5), "ms"},
      {"query_p90_ms", LatencyQuantile(records, 0.9), "ms"},
      {"goodput_qps", static_cast<double>(good) / phase.wall_s, "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  // Not gated: p99 with the number of requests beyond it.
  outcome->info.emplace_back("query_p99_ms", LatencyQuantile(records, 0.99));
  outcome->info.emplace_back(
      "query_p99_samples_beyond",
      static_cast<double>(records.size() -
                          static_cast<size_t>(std::ceil(
                              0.99 * static_cast<double>(records.size())))));
}

std::string ResultJson(const Args& args, const WorkloadSpec& spec,
                       const HostFacts& host, const Outcome& outcome) {
  std::string out = "{\n";
  out += "  \"workload\": " + JsonString(spec.name) + ",\n";
  out += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  out += "  \"seconds\": " + JsonNumber(args.seconds) + ",\n";
  out += "  \"traced\": " + std::string(args.traced ? "true" : "false") +
         ",\n";
  out += "  \"host\": {\"nproc\": " + std::to_string(host.nproc) +
         ", \"compiler\": " + JsonString(host.compiler) +
         ", \"build_type\": " + JsonString(host.build_type) +
         ", \"filesystem\": " + JsonString(host.filesystem) +
         ", \"commit\": " + JsonString(args.commit) + "},\n";
  auto object = [](const std::vector<std::pair<std::string, double>>& kv) {
    std::string text = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      text += (i > 0 ? ", " : "") + JsonString(kv[i].first) + ": " +
              JsonNumber(kv[i].second);
    }
    return text + "}";
  };
  out += "  \"sizes\": " + object(outcome.sizes) + ",\n";
  out += "  \"info\": " + object(outcome.info) + ",\n";
  out += "  \"correct\": true,\n";
  out += "  \"attempted\": " + std::to_string(outcome.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(outcome.failed) + ",\n";
  out += "  \"metrics\": {";
  const std::vector<Metric>& metrics = outcome.metrics;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ",\n    " : "\n    ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "\n  }\n}\n";
  return out;
}

// Runs one workload; returns the process exit code.
int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const std::string work = args.work_dir + "/" + spec.name;
  ScratchDir scratch(work);
  auto fail = [&](const std::string& step, const Status& status) {
    std::fprintf(stderr, "%s: %s failed: %s\n", spec.name.c_str(),
                 step.c_str(), status.ToString().c_str());
    return 1;
  };

  auto data = GenerateData(spec, args.seed);
  if (!data.ok()) return fail("generating the tables", data.status());
  // The from-scratch unsharded index over every table gives the reference
  // answers. Building it first also means every timed set-up below runs
  // on a heap the process has already grown, not just the first one.
  SketchIndex full(BenchConfig());
  const Status built =
      full.IndexRepository(MakeRepository(*data, 0, spec.num_tables()))
          .status();
  if (!built.ok()) return fail("building the reference index", built);
  auto reference = Reference::Build(full, data->queries);
  if (!reference.ok()) {
    return fail("computing reference answers", reference.status());
  }

  const TableRepository base = MakeRepository(*data, 0, spec.served_tables());
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < kSetups; ++rep) {
    deployment.reset();
    auto made = SetUp(spec, base, work + "/setup" + std::to_string(rep));
    if (!made.ok()) return fail("set-up", made.status());
    deployment = std::move(*made);
    setups.push_back(deployment->times);
  }

  size_t cursor = 0;
  const PhaseResult warm = WarmUp(*data, *deployment, *reference, &cursor,
                                  kWarmupRequests, args.warmup_seconds);
  if (!warm.wrong.empty()) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), warm.wrong.c_str());
    return 3;
  }

  Tracer tracer;
  const CpuTicks ticks_before = ReadCpuTicks();
  PhaseOptions options;
  options.seconds = args.seconds;
  options.cursor = &cursor;
  options.tracer = args.traced ? &tracer : nullptr;
  const PhaseResult phase =
      RunPhase(spec, *data, *deployment, *reference, options);
  if (!phase.wrong.empty()) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), phase.wrong.c_str());
    return 3;
  }
  const CpuTicks ticks_after = ReadCpuTicks();

  Outcome outcome;
  outcome.attempted = phase.records.size();
  for (const RequestRecord& record : phase.records) {
    if (!record.ok) ++outcome.failed;
  }
  if (args.traced) {
    LayerInputs in;
    in.spec = &spec;
    in.data = &*data;
    in.deployment = deployment.get();
    in.full = &full;
    in.reference = &*reference;
    in.phase = &phase;
    in.setups = &setups;
    in.tracer = &tracer;
    in.work_dir = work + "/probes";
    ScratchDir probes(in.work_dir);
    const Status probed = ProbeLayers(in, &outcome.metrics);
    if (!probed.ok()) return fail("layer probes", probed);
  } else {
    EndToEndMetrics(spec, phase, setups, &outcome);
  }

  outcome.sizes = {
      {"tables", static_cast<double>(spec.num_tables())},
      {"tables_served_at_setup", static_cast<double>(spec.served_tables())},
      {"table_rows", static_cast<double>(spec.table_rows)},
      {"candidates", static_cast<double>(full.size())},
      {"candidates_served_at_setup",
       static_cast<double>(deployment->index.size())},
      {"queries", static_cast<double>(data->queries.size())},
      {"query_rows", static_cast<double>(spec.query_rows)},
      {"shards", static_cast<double>(kShards)},
      {"cache_entries",
       static_cast<double>(deployment->router_options.cache_entries)},
      {"ingest_batches", static_cast<double>(spec.num_batches())},
  };
  for (size_t s = 0; s < deployment->servers.size(); ++s) {
    const ShardServer& server = *deployment->servers[s];
    outcome.sizes.emplace_back(
        "shard" + std::to_string(s) + "_pages",
        static_cast<double>(server.paged_open_stats().file_size / 4096));
    outcome.sizes.emplace_back("shard" + std::to_string(s) + "_pool_pages",
                               static_cast<double>(server.pool_capacity()));
  }
  outcome.info.emplace_back("requests", static_cast<double>(outcome.attempted));
  outcome.info.emplace_back("failed", static_cast<double>(outcome.failed));
  outcome.info.emplace_back(
      "error_rate", outcome.attempted == 0
                        ? 0.0
                        : static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted));
  outcome.info.emplace_back("phase_wall_s", phase.wall_s);
  // A share of the machine's CPU time other guests took during the timed
  // phase; timings from a run with a large share are suspect.
  outcome.info.emplace_back(
      "host_steal_share",
      ticks_after.total == ticks_before.total
          ? 0.0
          : static_cast<double>(ticks_after.steal - ticks_before.steal) /
                static_cast<double>(ticks_after.total - ticks_before.total));
  outcome.info.emplace_back("warmup_requests",
                            static_cast<double>(warm.records.size()));
  const uint64_t hits = phase.cache_after.hits - phase.cache_before.hits;
  const uint64_t misses =
      phase.cache_after.misses - phase.cache_before.misses;
  outcome.info.emplace_back(
      "cache_hit_rate", hits + misses == 0
                            ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses));
  for (int rep = 0; rep < kSetups; ++rep) {
    outcome.info.emplace_back("setup_s_" + std::to_string(rep),
                              setups[rep].total_s());
  }

  std::printf("== %s (seed %llu, %s, %zu requests, %zu failed)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.traced ? "traced" : "untraced", outcome.attempted,
              outcome.failed);
  for (const Metric& metric : outcome.metrics) {
    std::printf("  %-44s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);

  const HostFacts host = ReadHostFacts(work);
  if (!args.json_path.empty()) {
    const Status written = wire::WriteFileBytes(
        ResultJson(args, spec, host, outcome), args.json_path);
    if (!written.ok()) return fail("writing the result", written);
  }
  if (!args.spans_path.empty()) {
    const Status written =
        wire::WriteFileBytes(tracer.ToJson(), args.spans_path);
    if (!written.ok()) return fail("writing the spans", written);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  if (!args.smoke) {
    const std::optional<WorkloadSpec> spec =
        FindWorkload(args.workload, /*smoke=*/false);
    if (!spec.has_value()) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return Usage(argv[0]);
    }
    return RunWorkload(args, *spec);
  }
  args.seconds = 0.5;
  args.warmup_seconds = 0.0;
  for (const std::string& name : WorkloadNames()) {
    for (const bool traced : {false, true}) {
      args.traced = traced;
      const int code = RunWorkload(args, *FindWorkload(name, /*smoke=*/true));
      if (code != 0) return code;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dbench
}  // namespace joinmi

int main(int argc, char** argv) { return joinmi::dbench::Main(argc, argv); }
