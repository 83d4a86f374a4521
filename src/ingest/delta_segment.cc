#include "src/ingest/delta_segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/sketch/serialize.h"

namespace joinmi {
namespace ingest {

namespace {

constexpr uint8_t kRecordTag = 1;
constexpr uint8_t kCommitTag = 2;

std::string EncodeHeader(const JoinMIConfig& config, uint64_t shard) {
  std::string out;
  wire::AppendRaw(&out, kDeltaSegmentMagic, sizeof(kDeltaSegmentMagic));
  wire::AppendPod<uint32_t>(&out, kDeltaSegmentVersion);
  wire::AppendPod<uint64_t>(&out, shard);
  AppendJoinMIConfig(&out, config);
  wire::AppendPod<uint64_t>(&out, wire::Checksum64(out));
  return out;
}

void EncodeRecordEntry(std::string* out, const DeltaRecord& record) {
  wire::AppendPod<uint8_t>(out, kRecordTag);
  // record_checksum covers global_index || payload.
  const uint64_t record_checksum = wire::Checksum64(
      record.payload.data(), record.payload.size(),
      wire::Checksum64(&record.global_index, sizeof(uint64_t)));
  wire::AppendPod<uint64_t>(out, record.global_index);
  wire::AppendPod<uint32_t>(out,
                            static_cast<uint32_t>(record.payload.size()));
  out->append(record.payload);
  wire::AppendPod<uint64_t>(out, record_checksum);
}

// Parses the header of `data`, filling shard/config and returning the
// header length; `hash` is advanced over the header bytes.
Status ParseHeader(const std::string& data, uint64_t* shard,
                   JoinMIConfig* config, size_t* header_len,
                   uint64_t* hash) {
  wire::Reader reader(data);
  std::string magic;
  JOINMI_RETURN_NOT_OK(reader.ReadBytes(sizeof(kDeltaSegmentMagic), &magic));
  if (magic != std::string(kDeltaSegmentMagic, sizeof(kDeltaSegmentMagic))) {
    return Status::IOError("not a delta segment (bad magic)");
  }
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&version));
  if (version != kDeltaSegmentVersion) {
    return Status::IOError("unsupported delta segment version " +
                           std::to_string(version));
  }
  JOINMI_RETURN_NOT_OK(reader.Read(shard));
  JOINMI_ASSIGN_OR_RETURN(*config, ReadJoinMIConfig(&reader));
  size_t checksum_at = data.size() - reader.remaining();
  uint64_t stored = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&stored));
  const uint64_t computed = wire::Checksum64(data.data(), checksum_at);
  if (stored != computed) {
    return Status::IOError("delta segment header checksum mismatch");
  }
  *header_len = checksum_at + sizeof(uint64_t);
  *hash =
      wire::Checksum64(data.data() + checksum_at, sizeof(uint64_t), computed);
  return Status::OK();
}

struct ParsedSegment {
  DeltaSegmentContents contents;
  uint64_t chain_hash = 0;  // hash of the committed prefix
};

// Scans entries after the header, keeping the longest prefix that ends in
// a valid commit. Anything invalid — truncation, checksum mismatch, an
// unknown tag, a commit whose count or chain disagrees — marks the start
// of the discarded tail.
ParsedSegment ParseEntries(const std::string& data, size_t header_len,
                           uint64_t header_hash,
                           DeltaSegmentContents contents) {
  ParsedSegment out;
  contents.committed_bytes = header_len;
  contents.committed_checksum = header_hash;
  uint64_t hash = header_hash;
  size_t pos = header_len;
  std::vector<DeltaRecord> pending;
  while (pos < data.size()) {
    uint8_t tag = static_cast<uint8_t>(data[pos]);
    if (tag == kRecordTag) {
      size_t need = 1 + sizeof(uint64_t) + sizeof(uint32_t);
      if (pos + need > data.size()) break;
      uint64_t global_index = 0;
      uint32_t payload_len = 0;
      std::memcpy(&global_index, data.data() + pos + 1, sizeof(uint64_t));
      std::memcpy(&payload_len, data.data() + pos + 1 + sizeof(uint64_t),
                  sizeof(uint32_t));
      size_t entry_len = need + payload_len + sizeof(uint64_t);
      if (pos + entry_len > data.size()) break;
      uint64_t stored = 0;
      std::memcpy(&stored, data.data() + pos + need + payload_len,
                  sizeof(uint64_t));
      // The record checksum covers global_index || payload.
      const uint64_t computed = wire::Checksum64(
          data.data() + pos + need, payload_len,
          wire::Checksum64(data.data() + pos + 1, sizeof(uint64_t)));
      if (stored != computed) break;
      DeltaRecord record;
      record.global_index = global_index;
      record.payload = data.substr(pos + need, payload_len);
      pending.push_back(std::move(record));
      hash = wire::Checksum64(data.data() + pos, entry_len, hash);
      pos += entry_len;
    } else if (tag == kCommitTag) {
      size_t entry_len = 1 + sizeof(uint64_t) + sizeof(uint64_t);
      if (pos + entry_len > data.size()) break;
      uint64_t cumulative = 0;
      uint64_t chain = 0;
      std::memcpy(&cumulative, data.data() + pos + 1, sizeof(uint64_t));
      std::memcpy(&chain, data.data() + pos + 1 + sizeof(uint64_t),
                  sizeof(uint64_t));
      if (chain != hash) break;
      if (cumulative != contents.records.size() + pending.size()) break;
      for (auto& record : pending) {
        contents.records.push_back(std::move(record));
      }
      pending.clear();
      hash = wire::Checksum64(data.data() + pos, entry_len, hash);
      pos += entry_len;
      contents.committed_bytes = pos;
      contents.committed_checksum = hash;
    } else {
      break;
    }
  }
  contents.discarded_tail_bytes = data.size() - contents.committed_bytes;
  out.chain_hash = contents.committed_checksum;
  out.contents = std::move(contents);
  return out;
}

Result<ParsedSegment> ParseSegment(const std::string& data) {
  DeltaSegmentContents contents;
  size_t header_len = 0;
  uint64_t hash = 0;
  JOINMI_RETURN_NOT_OK(ParseHeader(data, &contents.shard, &contents.config,
                                   &header_len, &hash));
  return ParseEntries(data, header_len, hash, std::move(contents));
}

Status WriteAllFd(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("delta segment write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<DeltaSegmentContents> ReadDeltaSegmentFile(const std::string& path) {
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  JOINMI_ASSIGN_OR_RETURN(ParsedSegment parsed, ParseSegment(data));
  return std::move(parsed.contents);
}

Result<DeltaSegmentContents> ReadDeltaSegmentPrefix(
    const std::string& path, uint64_t committed_bytes,
    uint64_t expected_checksum) {
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  if (data.size() < committed_bytes) {
    return Status::IOError("delta segment '" + path + "' shorter than its " +
                           "published prefix (" +
                           std::to_string(data.size()) + " < " +
                           std::to_string(committed_bytes) + " bytes)");
  }
  std::string prefix = data.substr(0, committed_bytes);
  if (wire::Checksum64(prefix) != expected_checksum) {
    return Status::IOError("delta segment '" + path +
                           "' failed its published checksum");
  }
  JOINMI_ASSIGN_OR_RETURN(ParsedSegment parsed, ParseSegment(prefix));
  if (parsed.contents.committed_bytes != committed_bytes ||
      parsed.contents.discarded_tail_bytes != 0) {
    return Status::IOError("delta segment '" + path +
                           "' published prefix does not end at a commit");
  }
  return std::move(parsed.contents);
}

Result<std::unique_ptr<DeltaSegmentWriter>> DeltaSegmentWriter::Open(
    const std::string& path, const JoinMIConfig& config, uint64_t shard) {
  auto writer = std::unique_ptr<DeltaSegmentWriter>(new DeltaSegmentWriter());
  writer->path_ = path;
  writer->shard_ = shard;
  writer->config_ = config;

  auto existing = wire::ReadFileBytes(path);
  if (existing.ok()) {
    JOINMI_ASSIGN_OR_RETURN(ParsedSegment parsed, ParseSegment(*existing));
    if (parsed.contents.shard != shard) {
      return Status::InvalidArgument(
          "delta segment '" + path + "' belongs to shard " +
          std::to_string(parsed.contents.shard) + ", not " +
          std::to_string(shard));
    }
    if (!(parsed.contents.config == config)) {
      return Status::InvalidArgument("delta segment '" + path +
                                     "' was written under a different "
                                     "index config");
    }
    writer->records_ = std::move(parsed.contents.records);
    writer->committed_bytes_ = parsed.contents.committed_bytes;
    writer->chain_checksum_ = parsed.chain_hash;
    writer->recovered_tail_bytes_ = parsed.contents.discarded_tail_bytes;
    writer->fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (writer->fd_ < 0) {
      return Status::IOError("cannot open delta segment '" + path +
                             "': " + std::strerror(errno));
    }
    if (writer->recovered_tail_bytes_ > 0) {
      if (::ftruncate(writer->fd_,
                      static_cast<off_t>(writer->committed_bytes_)) != 0) {
        return Status::IOError("cannot truncate torn tail of '" + path +
                               "': " + std::strerror(errno));
      }
      if (::fsync(writer->fd_) != 0) {
        return Status::IOError("fsync failed for '" + path +
                               "': " + std::strerror(errno));
      }
    }
    if (::lseek(writer->fd_, 0, SEEK_END) < 0) {
      return Status::IOError("cannot seek delta segment '" + path +
                             "': " + std::strerror(errno));
    }
    return writer;
  }

  // Fresh segment: header only, durable before the writer is handed out.
  std::string header = EncodeHeader(config, shard);
  writer->fd_ =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (writer->fd_ < 0) {
    return Status::IOError("cannot create delta segment '" + path +
                           "': " + std::strerror(errno));
  }
  JOINMI_RETURN_NOT_OK(WriteAllFd(writer->fd_, header));
  if (::fsync(writer->fd_) != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + std::strerror(errno));
  }
  writer->committed_bytes_ = header.size();
  writer->chain_checksum_ = wire::Checksum64(header);
  return writer;
}

DeltaSegmentWriter::~DeltaSegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status DeltaSegmentWriter::Append(const std::vector<DeltaRecord>& records) {
  if (records.empty()) return Status::OK();
  std::string batch;
  for (const auto& record : records) {
    EncodeRecordEntry(&batch, record);
  }
  const uint64_t chain =
      wire::Checksum64(batch.data(), batch.size(), chain_checksum_);
  wire::AppendPod<uint8_t>(&batch, kCommitTag);
  wire::AppendPod<uint64_t>(&batch,
                            static_cast<uint64_t>(records_.size() +
                                                  records.size()));
  wire::AppendPod<uint64_t>(&batch, chain);
  JOINMI_RETURN_NOT_OK(WriteAllFd(fd_, batch));
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed for '" + path_ +
                           "': " + std::strerror(errno));
  }
  chain_checksum_ =
      wire::Checksum64(batch.data(), batch.size(), chain_checksum_);
  committed_bytes_ += batch.size();
  records_.insert(records_.end(), records.begin(), records.end());
  return Status::OK();
}

}  // namespace ingest
}  // namespace joinmi
