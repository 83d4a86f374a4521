// shard_server: serve one shard of a partitioned sketch index over JMRP.
//
//   shard_server <deployment> <shard_id> <port> [--host ADDR]
//                [--workers N] [--eval-threads N] [--port-file PATH]
//                [--paged] [--pool-pages N] [--max-pending N]
//                [--stats-json PATH]
//
// <deployment> is a manifest file, a CURRENT pointer file, or a
// deployment directory (resolved to the published generation). Loads
// shard <shard_id> named by the resolved manifest (checksum- and
// count-verified before serving), binds <port> (0 = ephemeral), prints
// one "listening on HOST:PORT" line, and serves until SIGINT/SIGTERM.
// A kReloadRequest frame (see ingest_ctl --notify) makes the server
// re-resolve the deployment and swap in the newest generation without
// dropping a connection; in-flight queries finish on the old one.
// --port-file writes the bound port (digits + newline) once the listener
// is up — the startup barrier scripts wait on, and the way ephemeral
// ports are discovered.
//
// --paged requires the manifest to record the shard as a "JMPS" paged
// file and serves it through a bounded buffer pool of --pool-pages pages:
// startup reads only the file's header + record directory (a second
// startup line reports exactly how many bytes, so logs prove the shard
// was never materialized whole) and the shutdown stats line gains the
// pool's hit/miss/eviction counters. A paged shard also serves fine
// without --paged — the flag is the operator's assertion, not a mode
// switch.
//
// --max-pending N bounds search frames concurrently queued or executing;
// excess frames are rejected with a structured kOverloaded status carrying
// a retry_after_ms hint (see src/common/admission.h). --stats-json PATH
// writes the server's full metrics snapshot (the same JSON served over the
// JMRP stats frame) to PATH at shutdown — the machine-readable replacement
// for scraping the stderr stats lines, which still print.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/discovery/shard_server.h"
#include "src/sketch/serialize.h"

using namespace joinmi;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <deployment> <shard_id> <port> [--host ADDR] "
               "[--workers N] [--eval-threads N] [--port-file PATH] "
               "[--paged] [--pool-pages N] [--max-pending N] "
               "[--stats-json PATH]\n"
               "  deployment  : manifest file, CURRENT pointer, or "
               "deployment dir\n"
               "  shard_id    : 0-based index into the manifest's shard list\n"
               "  port        : TCP port to bind; 0 picks an ephemeral port\n"
               "  --paged     : require a paged (JMPS) shard; startup reads\n"
               "                header + directory only\n"
               "  --pool-pages: buffer-pool budget in pages for paged "
               "shards\n"
               "  --max-pending: search frames queued+executing before new\n"
               "                ones are rejected kOverloaded (0 = "
               "unbounded)\n"
               "  --stats-json: write the metrics snapshot JSON here at "
               "shutdown\n",
               argv0);
  return 2;
}

// Strict integer parse: whole string, no sign surprises, range-checked.
bool ParseSizeArg(const char* arg, long min, long max, long* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0' || parsed < min ||
      parsed > max) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);

  const std::string manifest_path = argv[1];
  long shard_id = 0;
  if (!ParseSizeArg(argv[2], 0, 1000000, &shard_id)) {
    std::fprintf(stderr, "shard_id '%s' must be a non-negative integer\n",
                 argv[2]);
    return Usage(argv[0]);
  }
  long port = 0;
  if (!ParseSizeArg(argv[3], 0, 65535, &port)) {
    std::fprintf(stderr, "port '%s' must be an integer in [0, 65535]\n",
                 argv[3]);
    return Usage(argv[0]);
  }

  ShardServerOptions options;
  std::string port_file;
  std::string stats_json_path;
  for (int arg = 4; arg < argc; ++arg) {
    const bool has_value = arg + 1 < argc;
    if (std::strcmp(argv[arg], "--host") == 0 && has_value) {
      options.host = argv[++arg];
    } else if (std::strcmp(argv[arg], "--workers") == 0 && has_value) {
      long workers = 0;
      if (!ParseSizeArg(argv[++arg], 1, 1024, &workers)) {
        std::fprintf(stderr, "--workers must be an integer in [1, 1024]\n");
        return Usage(argv[0]);
      }
      options.num_workers = static_cast<size_t>(workers);
    } else if (std::strcmp(argv[arg], "--eval-threads") == 0 && has_value) {
      long threads = 0;
      if (!ParseSizeArg(argv[++arg], 1, 256, &threads)) {
        std::fprintf(stderr,
                     "--eval-threads must be an integer in [1, 256]\n");
        return Usage(argv[0]);
      }
      options.eval_threads = static_cast<size_t>(threads);
    } else if (std::strcmp(argv[arg], "--port-file") == 0 && has_value) {
      port_file = argv[++arg];
    } else if (std::strcmp(argv[arg], "--paged") == 0) {
      options.require_paged = true;
    } else if (std::strcmp(argv[arg], "--pool-pages") == 0 && has_value) {
      long pool_pages = 0;
      if (!ParseSizeArg(argv[++arg], 1, 1L << 30, &pool_pages)) {
        std::fprintf(stderr, "--pool-pages must be a positive integer\n");
        return Usage(argv[0]);
      }
      options.pool_pages = static_cast<size_t>(pool_pages);
    } else if (std::strcmp(argv[arg], "--max-pending") == 0 && has_value) {
      long max_pending = 0;
      if (!ParseSizeArg(argv[++arg], 0, 1L << 30, &max_pending)) {
        std::fprintf(stderr,
                     "--max-pending must be a non-negative integer\n");
        return Usage(argv[0]);
      }
      options.max_pending = static_cast<size_t>(max_pending);
    } else if (std::strcmp(argv[arg], "--stats-json") == 0 && has_value) {
      stats_json_path = argv[++arg];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", argv[arg]);
      return Usage(argv[0]);
    }
  }
  options.port = static_cast<uint16_t>(port);

  auto server =
      ShardServer::Create(manifest_path, static_cast<size_t>(shard_id),
                          options);
  if (!server.ok()) {
    std::fprintf(stderr, "failed to load shard %ld from %s: %s\n", shard_id,
                 manifest_path.c_str(),
                 server.status().ToString().c_str());
    return 1;
  }
  Status started = (*server)->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start shard server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("shard %ld listening on %s:%u (%zu candidates, %zu workers, "
              "%zu eval threads)\n",
              shard_id, (*server)->host().c_str(), (*server)->port(),
              (*server)->num_candidates(), options.num_workers,
              options.eval_threads);
  if ((*server)->serving_paged()) {
    // The no-materialization receipt: CI greps this line and asserts the
    // startup read is a small fraction of the shard file.
    const auto open_stats = (*server)->paged_open_stats();
    std::printf("shard %ld paged: startup read %llu of %llu bytes "
                "(header+directory only), pool %zu pages\n",
                shard_id,
                static_cast<unsigned long long>(open_stats.startup_bytes_read),
                static_cast<unsigned long long>(open_stats.file_size),
                (*server)->pool_capacity());
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    const Status written = wire::WriteFileBytes(
        std::to_string((*server)->port()) + "\n", port_file);
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write port file: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Shutdown stats go to stderr (stdout may be a pipe a supervisor already
  // stopped reading): searches are query traffic only (handshakes and
  // health probes are counted apart), handshakes count distinct client
  // connections, so a failover drill's
  // logs show whether this replica actually took traffic.
  std::fprintf(stderr,
               "shard %ld shutting down: %llu searches served "
               "(%llu handshakes, %llu health probes)\n",
               shard_id,
               static_cast<unsigned long long>((*server)->requests_served()),
               static_cast<unsigned long long>(
                   (*server)->handshakes_served()),
               static_cast<unsigned long long>((*server)->health_served()));
  if ((*server)->serving_paged()) {
    const auto pool = (*server)->pool_stats();
    std::fprintf(stderr,
                 "shard %ld pool: %llu hits, %llu misses, %llu evictions\n",
                 shard_id, static_cast<unsigned long long>(pool.hits),
                 static_cast<unsigned long long>(pool.misses),
                 static_cast<unsigned long long>(pool.evictions));
  }
  if (!stats_json_path.empty()) {
    // The machine-readable shutdown receipt: everything the stderr lines
    // say and more, in the registry's snapshot schema.
    const Status written =
        wire::WriteFileBytes((*server)->StatsJson() + "\n", stats_json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write stats JSON: %s\n",
                   written.ToString().c_str());
    }
  }
  (*server)->Stop();
  return 0;
}
