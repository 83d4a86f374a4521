#include "src/ingest/generation.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/sketch/serialize.h"

namespace joinmi {
namespace ingest {

namespace {

constexpr char kCurrentMagicLine[] = "JMCUR v1";

Status SyncPath(const std::string& path, bool directory) {
  int fd = ::open(path.c_str(),
                  directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteFileDurable(const std::string& path, const std::string& data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + path +
                           "': " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("write failed for '" + path +
                             "': " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("fsync failed for '" + path +
                           "': " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    return Status::IOError("close failed for '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

namespace {

struct CurrentPointer {
  std::string manifest_filename;
  uint64_t checksum = 0;
};

Result<CurrentPointer> ParseCurrent(const std::string& path,
                                    const std::string& data) {
  std::istringstream in(data);
  std::string magic, filename, checksum_line;
  if (!std::getline(in, magic) || magic != kCurrentMagicLine) {
    return Status::IOError("'" + path + "' is not a CURRENT pointer file");
  }
  if (!std::getline(in, filename) || filename.empty() ||
      filename.find('/') != std::string::npos) {
    return Status::IOError("CURRENT pointer '" + path +
                           "' names an invalid manifest file");
  }
  if (!std::getline(in, checksum_line) || checksum_line.empty()) {
    return Status::IOError("CURRENT pointer '" + path +
                           "' is missing its checksum line");
  }
  CurrentPointer pointer;
  pointer.manifest_filename = filename;
  errno = 0;
  char* end = nullptr;
  pointer.checksum = std::strtoull(checksum_line.c_str(), &end, 10);
  if (errno != 0 || end == checksum_line.c_str() || *end != '\0') {
    return Status::IOError("CURRENT pointer '" + path +
                           "' has a malformed checksum");
  }
  return pointer;
}

Result<std::string> ResolvePointerFile(const std::string& pointer_path,
                                       const std::string& dir,
                                       const std::string& data) {
  JOINMI_ASSIGN_OR_RETURN(CurrentPointer pointer,
                          ParseCurrent(pointer_path, data));
  std::string manifest_path =
      (std::filesystem::path(dir) / pointer.manifest_filename).string();
  JOINMI_ASSIGN_OR_RETURN(std::string manifest_bytes,
                          wire::ReadFileBytes(manifest_path));
  if (wire::Checksum64(manifest_bytes) != pointer.checksum) {
    return Status::IOError("manifest '" + manifest_path +
                           "' does not match the checksum recorded in '" +
                           pointer_path + "'");
  }
  return manifest_path;
}

}  // namespace

std::string GenerationManifestName(uint64_t epoch) {
  if (epoch == 0) return "manifest.jmim";
  char buf[40];  // "manifest-g", up to 20 digits, ".jmim" and a NUL
  std::snprintf(buf, sizeof(buf), "manifest-g%06llu.jmim",
                static_cast<unsigned long long>(epoch));
  return buf;
}

Status PublishCurrent(const std::string& dir,
                      const std::string& manifest_filename) {
  std::filesystem::path root(dir);
  std::string manifest_path = (root / manifest_filename).string();
  JOINMI_ASSIGN_OR_RETURN(std::string manifest_bytes,
                          wire::ReadFileBytes(manifest_path));
  // Pin the manifest to disk before the pointer can name it.
  JOINMI_RETURN_NOT_OK(SyncPath(manifest_path, /*directory=*/false));

  std::ostringstream out;
  out << kCurrentMagicLine << "\n"
      << manifest_filename << "\n"
      << wire::Checksum64(manifest_bytes) << "\n";
  std::string tmp_path = (root / (std::string(kCurrentFileName) + ".tmp"))
                             .string();
  std::string current_path = (root / kCurrentFileName).string();
  JOINMI_RETURN_NOT_OK(WriteFileDurable(tmp_path, out.str()));
  if (::rename(tmp_path.c_str(), current_path.c_str()) != 0) {
    return Status::IOError("cannot rename '" + tmp_path + "' over '" +
                           current_path + "': " + std::strerror(errno));
  }
  return SyncPath(dir, /*directory=*/true);
}

Result<std::string> ResolveManifestPath(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::filesystem::path root(path);
    std::string current = (root / kCurrentFileName).string();
    auto pointer_bytes = wire::ReadFileBytes(current);
    if (pointer_bytes.ok()) {
      return ResolvePointerFile(current, path, *pointer_bytes);
    }
    std::string fallback = (root / "manifest.jmim").string();
    if (std::filesystem::exists(fallback, ec)) return fallback;
    return Status::IOError("'" + path +
                           "' has neither a CURRENT pointer nor a "
                           "manifest.jmim");
  }
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  if (data.compare(0, 5, "JMCUR") == 0) {
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty()) dir = ".";
    return ResolvePointerFile(path, dir, data);
  }
  // Anything else is treated as a manifest file; its own reader validates
  // the magic.
  return path;
}

}  // namespace ingest
}  // namespace joinmi
