// ingest_ctl: operate the online-ingest write path of a mutable
// deployment directory (see src/ingest/).
//
//   ingest_ctl append  <deployment_dir> <index.jmix> [--from N]
//   ingest_ctl publish <deployment_dir> [--notify endpoints.txt]
//   ingest_ctl compact <deployment_dir> [--notify endpoints.txt]
//   ingest_ctl status  <deployment_dir> [--json]
//
// append: durably commits candidates of <index.jmix> into the
// deployment's per-shard delta segments, starting at candidate --from
// (default: the deployment's next global insertion index, so pointing at
// a superset index "catches the deployment up" to it and re-running is a
// no-op). Appended records survive a crash but are NOT served until
// publish.
//
// publish: pins every committed delta record into manifest generation
// epoch+1 and atomically flips the CURRENT pointer. --notify sends each
// server in the endpoints file a kReloadRequest so it swaps the new
// generation in without restarting; in-flight queries finish on the old
// epoch. A notify failure does not roll back the publish (CURRENT
// already names the new generation — re-notify or let the next reload
// pick it up) but does exit nonzero.
//
// compact: folds every committed delta record into fresh base shard
// files (byte-identical to a from-scratch build of the same candidates),
// verifies them, and publishes the compacted, delta-free manifest as
// epoch+1. Same --notify semantics as publish.
//
// status: epoch, published/pending candidate counts, and per-shard delta
// occupancy; --json prints one machine-readable document instead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/discovery/paged_shard_index.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

using namespace joinmi;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s append  <deployment_dir> <index.jmix> [--from N]\n"
      "       %s publish <deployment_dir> [--notify endpoints.txt]\n"
      "       %s compact <deployment_dir> [--notify endpoints.txt]\n"
      "       %s status  <deployment_dir> [--json]\n"
      "  append  : durably commit candidates [N, end) of the index into\n"
      "            the deployment's delta segments (default N = next\n"
      "            global insertion index; served only after publish)\n"
      "  publish : pin committed deltas into manifest epoch+1 and flip\n"
      "            CURRENT atomically\n"
      "  compact : fold deltas into fresh base shards, then publish\n"
      "  status  : epoch + published/pending counts (+ per-shard deltas)\n"
      "  --notify: send kReloadRequest to every server in the endpoints\n"
      "            file after the flip (exit nonzero if any failed)\n",
      argv0, argv0, argv0, argv0);
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

// Tells one server to re-resolve its deployment and swap in the newest
// generation. Deliberately a raw frame exchange, not an RpcShardClient:
// the client's handshake verifies candidate counts against a manifest,
// and the whole point here is that the server is about to DISAGREE with
// the manifest it was started from.
Status NotifyOne(const ShardEndpoint& endpoint, uint64_t* epoch,
                 uint64_t* candidates) {
  JOINMI_ASSIGN_OR_RETURN(net::Socket socket,
                          net::Socket::Connect(endpoint.host, endpoint.port,
                                               /*timeout_ms=*/5000));
  JOINMI_RETURN_NOT_OK(socket.SetTimeouts(30000, 30000));
  JOINMI_RETURN_NOT_OK(net::SendFrame(
      &socket, net::FrameType::kReloadRequest, /*request_id=*/1, ""));
  JOINMI_ASSIGN_OR_RETURN(net::Frame frame, net::RecvFrame(&socket));
  if (frame.type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame.payload, &server_error));
    return server_error;
  }
  if (frame.type != net::FrameType::kReloadResponse) {
    return Status::IOError(
        "server answered the reload request with a " +
        std::string(net::FrameTypeToString(frame.type)) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::ReloadResponse response,
                          rpc::DecodeReloadResponse(frame.payload));
  JOINMI_RETURN_NOT_OK(response.status);
  *epoch = response.epoch;
  *candidates = response.num_candidates;
  return Status::OK();
}

// Reloads every endpoint in the file; reports every failure (not just
// the first) and returns the failure count.
int NotifyAll(const std::string& endpoints_path, uint64_t expect_epoch) {
  auto replicas = ReadShardEndpoints(endpoints_path);
  if (!replicas.ok()) {
    std::fprintf(stderr, "failed reading endpoints: %s\n",
                 replicas.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (size_t shard = 0; shard < replicas->size(); ++shard) {
    for (const ShardEndpoint& endpoint : (*replicas)[shard]) {
      uint64_t epoch = 0;
      uint64_t candidates = 0;
      const Status notified = NotifyOne(endpoint, &epoch, &candidates);
      if (!notified.ok()) {
        ++failures;
        std::fprintf(stderr, "notify %s (shard %zu): FAILED: %s\n",
                     endpoint.ToString().c_str(), shard,
                     notified.ToString().c_str());
        continue;
      }
      std::printf("notify %s (shard %zu): epoch %llu, %llu candidates\n",
                  endpoint.ToString().c_str(), shard,
                  static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(candidates));
      if (epoch != expect_epoch) {
        ++failures;
        std::fprintf(stderr,
                     "notify %s (shard %zu): serving epoch %llu, expected "
                     "%llu — did another publish race this one?\n",
                     endpoint.ToString().c_str(), shard,
                     static_cast<unsigned long long>(epoch),
                     static_cast<unsigned long long>(expect_epoch));
      }
    }
  }
  return failures;
}

int RunAppend(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);
  const std::string dir = argv[2];
  const std::string index_path = argv[3];
  long from = -1;
  for (int arg = 4; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--from") == 0 && arg + 1 < argc) {
      if (!ParseSizeArg(argv[++arg], 0, 1L << 62, &from)) {
        std::fprintf(stderr, "--from must be a non-negative integer\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", argv[arg]);
      return Usage(argv[0]);
    }
  }

  auto coordinator = ingest::IngestCoordinator::Open(dir);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "failed opening the deployment: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  auto index = ReadIndexFile(index_path);
  if (!index.ok()) {
    std::fprintf(stderr, "failed reading the source index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  const uint64_t start =
      from >= 0 ? static_cast<uint64_t>(from)
                : (*coordinator)->next_global_index();
  if (start > index->size()) {
    std::fprintf(stderr,
                 "append start %llu is past the index's %zu candidates\n",
                 static_cast<unsigned long long>(start), index->size());
    return 1;
  }
  std::vector<CandidateRecord> batch;
  batch.reserve(index->size() - static_cast<size_t>(start));
  for (size_t i = static_cast<size_t>(start); i < index->size(); ++i) {
    const IndexedCandidate& candidate = index->candidates()[i];
    batch.push_back(CandidateRecord{candidate.ref, candidate.sketch()});
  }
  if (batch.empty()) {
    std::printf("nothing to append: the deployment already holds %llu "
                "candidates\n",
                static_cast<unsigned long long>(
                    (*coordinator)->next_global_index()));
    return 0;
  }
  const Status appended = (*coordinator)->Append(batch);
  if (!appended.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 appended.ToString().c_str());
    return 1;
  }
  std::printf("appended %zu candidates (globals %llu..%llu) — committed, "
              "pending publish (%llu pending total)\n",
              batch.size(), static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(
                  (*coordinator)->next_global_index() - 1),
              static_cast<unsigned long long>(
                  (*coordinator)->pending_candidates()));
  return 0;
}

int RunPublishOrCompact(int argc, char** argv, bool compact) {
  if (argc < 3) return Usage(argv[0]);
  const std::string dir = argv[2];
  std::string endpoints_path;
  for (int arg = 3; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--notify") == 0 && arg + 1 < argc) {
      endpoints_path = argv[++arg];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", argv[arg]);
      return Usage(argv[0]);
    }
  }
  auto coordinator = ingest::IngestCoordinator::Open(dir);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "failed opening the deployment: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  const uint64_t pending = (*coordinator)->pending_candidates();
  auto epoch = compact ? (*coordinator)->Compact()
                       : (*coordinator)->Publish();
  if (!epoch.ok()) {
    std::fprintf(stderr, "%s failed: %s\n",
                 compact ? "compact" : "publish",
                 epoch.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: epoch %llu now CURRENT (%llu candidates, %llu newly "
              "published)\n",
              compact ? "compacted" : "published",
              static_cast<unsigned long long>(*epoch),
              static_cast<unsigned long long>(
                  (*coordinator)->published_candidates()),
              static_cast<unsigned long long>(pending));
  if (!endpoints_path.empty()) {
    const int failures = NotifyAll(endpoints_path, *epoch);
    if (failures > 0) {
      std::fprintf(stderr,
                   "%d notify failure(s); CURRENT already names epoch "
                   "%llu — re-notify when the servers are reachable\n",
                   failures, static_cast<unsigned long long>(*epoch));
      return 1;
    }
  }
  return 0;
}

int RunStatus(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string dir = argv[2];
  bool json = false;
  for (int arg = 3; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", argv[arg]);
      return Usage(argv[0]);
    }
  }
  auto coordinator = ingest::IngestCoordinator::Open(dir);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "failed opening the deployment: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  const ShardManifest& manifest = (*coordinator)->manifest();
  if (json) {
    std::string out = "{";
    out += "\"epoch\": " + std::to_string((*coordinator)->epoch());
    out += ", \"manifest\": \"" + (*coordinator)->manifest_path() + "\"";
    out += ", \"published_candidates\": " +
           std::to_string((*coordinator)->published_candidates());
    out += ", \"pending_candidates\": " +
           std::to_string((*coordinator)->pending_candidates());
    out += ", \"shards\": [";
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
      const ShardManifestEntry& entry = manifest.shards[s];
      if (s > 0) out += ", ";
      out += "{\"path\": \"" + entry.path + "\"";
      out += ", \"candidates\": " + std::to_string(entry.candidate_count);
      out += ", \"delta_records\": " + std::to_string(entry.delta_records);
      out += "}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }
  std::printf("deployment   : %s\n", dir.c_str());
  std::printf("manifest     : %s (epoch %llu)\n",
              (*coordinator)->manifest_path().c_str(),
              static_cast<unsigned long long>((*coordinator)->epoch()));
  std::printf("published    : %llu candidates\n",
              static_cast<unsigned long long>(
                  (*coordinator)->published_candidates()));
  std::printf("pending      : %llu candidates (committed, unpublished)\n",
              static_cast<unsigned long long>(
                  (*coordinator)->pending_candidates()));
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardManifestEntry& entry = manifest.shards[s];
    const std::string delta_note =
        entry.has_delta() ? "  (" + entry.delta_path + ")" : "";
    std::printf("  shard %-4zu : %s  %6llu candidates  %llu in delta%s\n",
                s, entry.path.c_str(),
                static_cast<unsigned long long>(entry.candidate_count),
                static_cast<unsigned long long>(entry.delta_records),
                delta_note.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  if (std::strcmp(argv[1], "append") == 0) return RunAppend(argc, argv);
  if (std::strcmp(argv[1], "publish") == 0) {
    return RunPublishOrCompact(argc, argv, /*compact=*/false);
  }
  if (std::strcmp(argv[1], "compact") == 0) {
    return RunPublishOrCompact(argc, argv, /*compact=*/true);
  }
  if (std::strcmp(argv[1], "status") == 0) return RunStatus(argc, argv);
  std::fprintf(stderr, "unknown verb '%s'\n", argv[1]);
  return Usage(argv[0]);
}
