// build_shards: partition a persisted sketch index into shard files plus
// a versioned shard manifest — the offline half of the sharded discovery
// deployment (shard files go to shard servers, the manifest to the query
// router) — and verify shard, delta and manifest files.
//
//   build_shards <index.jmix> <output_dir> <num_shards>
//                <round_robin|hash_dataset> [--format whole|paged]
//                [--page-size N]
//   build_shards verify <file> [<file> ...]
//
// Build: after writing, the tool reloads everything through the manifest
// (ShardedSketchIndex::Load), which re-verifies whole-file shards'
// checksums and candidate counts (paged shards re-open by header +
// directory), and prints the per-shard layout. Exits nonzero if any step
// fails or the reloaded totals disagree with the source index.
//
// Verify: checks every file named, dispatching on extension — a shard
// file goes to VerifyShardFile (.jmps walks every page, index + payload
// checksum, and replays the record directory; both formats then decode and
// check every candidate record); .jmds re-parses the delta segment
// and requires a clean committed tail; .jmim re-parses the manifest. ALL
// files are walked and every failure reported (an audit wants the full
// damage list, not the first hit); exits nonzero if any file failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/discovery/sharded_index.h"
#include "src/ingest/delta_segment.h"
#include "src/storage/paged_shard_file.h"

using namespace joinmi;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <index.jmix> <output_dir> <num_shards> "
               "<round_robin|hash_dataset> [--format whole|paged] "
               "[--page-size N]\n"
               "       %s verify <file> [<file> ...]\n"
               "  --format    : shard file layout (default whole); paged\n"
               "                shards serve through a buffer pool without\n"
               "                full materialization\n"
               "  --page-size : page size in bytes for paged shards "
               "(default 4096)\n"
               "  verify      : checks .jmps/.jmix/.jmds/.jmim files by\n"
               "                extension; walks all files, reports every\n"
               "                failure, exits nonzero if any failed\n",
               argv0, argv0);
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

// Extension-dispatched check of one deployment file. Returns OK when the
// file is intact; the message names what was checked.
Status VerifyOneFile(const std::string& path, std::string* what) {
  const size_t dot = path.rfind('.');
  const std::string ext =
      dot == std::string::npos ? "" : path.substr(dot);
  for (ShardFileFormat format :
       {ShardFileFormat::kWholeFile, ShardFileFormat::kPaged}) {
    if (ext == ShardFileExtension(format)) {
      *what = format == ShardFileFormat::kPaged ? "paged shard"
                                                : "whole-file shard";
      return VerifyShardFile(path, format);
    }
  }
  if (ext == ".jmds") {
    *what = "delta segment";
    auto contents = ingest::ReadDeltaSegmentFile(path);
    if (!contents.ok()) return contents.status();
    if (contents->discarded_tail_bytes != 0) {
      return Status::IOError(
          std::to_string(contents->discarded_tail_bytes) +
          " uncommitted tail bytes past the last valid commit record "
          "(recoverable by the ingest coordinator, but the file is not "
          "clean)");
    }
    return Status::OK();
  }
  if (ext == ".jmim") {
    *what = "manifest";
    return ReadManifestFile(path).status();
  }
  return Status::InvalidArgument(
      "unrecognized extension '" + ext +
      "' — verify checks .jmps, .jmix, .jmds, and .jmim files");
}

int RunVerify(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "verify needs at least one file\n");
    return 2;
  }
  // Walk EVERY file and report every failure — an operator auditing a
  // deployment directory wants the full damage list, not the first hit.
  int failures = 0;
  for (int arg = 2; arg < argc; ++arg) {
    const std::string path = argv[arg];
    std::string what = "file";
    const Status status = VerifyOneFile(path, &what);
    if (!status.ok()) {
      ++failures;
      std::fprintf(stderr, "%s: FAILED (%s): %s\n", path.c_str(),
                   what.c_str(), status.ToString().c_str());
      continue;
    }
    std::printf("%s: OK (%s)\n", path.c_str(), what.c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr, "verify: %d of %d files failed\n", failures,
                 argc - 2);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
    return RunVerify(argc, argv);
  }
  if (argc < 5) return Usage(argv[0]);

  const std::string index_path = argv[1];
  const std::string output_dir = argv[2];
  long shards_arg = 0;
  if (!ParseSizeArg(argv[3], 1, 100000, &shards_arg)) {
    std::fprintf(stderr, "num_shards must be an integer in [1, 100000]\n");
    return 2;
  }
  const size_t num_shards = static_cast<size_t>(shards_arg);
  auto policy = ParseShardPartitionPolicy(argv[4]);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }

  ShardBuildOptions build_options;
  for (int arg = 5; arg < argc; ++arg) {
    const bool has_value = arg + 1 < argc;
    if (std::strcmp(argv[arg], "--format") == 0 && has_value) {
      auto format = ParseShardFileFormat(argv[++arg]);
      if (!format.ok()) {
        std::fprintf(stderr, "%s\n", format.status().ToString().c_str());
        return 2;
      }
      build_options.format = *format;
    } else if (std::strcmp(argv[arg], "--page-size") == 0 && has_value) {
      long page_size = 0;
      if (!ParseSizeArg(argv[++arg], storage::kMinPageSize,
                        storage::kMaxPageSize, &page_size)) {
        std::fprintf(stderr, "--page-size must be an integer in [%u, %u]\n",
                     storage::kMinPageSize, storage::kMaxPageSize);
        return 2;
      }
      build_options.page_size = static_cast<uint32_t>(page_size);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", argv[arg]);
      return Usage(argv[0]);
    }
  }

  auto index = ReadIndexFile(index_path);
  if (!index.ok()) {
    std::fprintf(stderr, "failed reading the source index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  std::printf("source index : %s (%zu candidates, config %s)\n",
              index_path.c_str(), index->size(),
              index->config().ToString().c_str());

  auto manifest_path =
      BuildShards(*index, num_shards, *policy, output_dir, build_options);
  if (!manifest_path.ok()) {
    std::fprintf(stderr, "failed partitioning the index: %s\n",
                 manifest_path.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote        : %s (%zu shards, policy %s, format %s)\n",
              manifest_path->c_str(), num_shards,
              ShardPartitionPolicyToString(*policy),
              ShardFileFormatToString(build_options.format));

  // Round trip: loading re-verifies manifest structure and, per format,
  // whole-file checksums + counts or paged header/directory integrity
  // against what was just written.
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  if (!sharded.ok()) {
    std::fprintf(stderr, "failed reloading the sharded index: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  for (size_t s = 0; s < sharded->manifest().shards.size(); ++s) {
    const ShardManifestEntry& entry = sharded->manifest().shards[s];
    std::printf(
        "  shard %-4zu : %s  %6llu candidates  checksum %016llx  %s\n", s,
        entry.path.c_str(),
        static_cast<unsigned long long>(entry.candidate_count),
        static_cast<unsigned long long>(entry.checksum),
        ShardFileFormatToString(entry.format));
  }
  if (sharded->size() != index->size() ||
      sharded->num_shards() != num_shards) {
    std::fprintf(stderr,
                 "FATAL: reloaded sharded index totals disagree with the "
                 "source (%zu/%zu candidates, %zu/%zu shards)\n",
                 sharded->size(), index->size(), sharded->num_shards(),
                 num_shards);
    return 1;
  }
  std::printf("verified     : manifest round trip OK — %zu candidates "
              "across %zu shards\n",
              sharded->size(), sharded->num_shards());
  return 0;
}
