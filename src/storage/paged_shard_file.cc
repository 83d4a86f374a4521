#include "src/storage/paged_shard_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/sketch/serialize.h"

namespace joinmi {
namespace storage {

const char kPagedShardMagic[4] = {'J', 'M', 'P', 'S'};

namespace {

/// Fixed-width fields of the file header, parsed before the config block.
struct ParsedHeader {
  uint32_t page_size = 0;
  uint64_t page_count = 0;
  uint64_t record_count = 0;
  uint64_t directory_offset = 0;
  uint64_t directory_size = 0;
  uint64_t directory_checksum = 0;
  JoinMIConfig config;
};

/// Record directory entry width: u32 page + u32 offset + u64 length.
constexpr size_t kDirectoryEntrySize = 16;

Status ParseHeader(const std::string& header_bytes, const std::string& path,
                   ParsedHeader* out) {
  if (header_bytes.size() != kPagedShardHeaderSize) {
    return Status::IOError(
        "paged shard '" + path + "' header is " +
        std::to_string(header_bytes.size()) + " bytes; the " +
        std::to_string(kPagedShardHeaderSize) +
        "-byte JMPS header requires a larger file — truncated or not a "
        "paged shard");
  }
  if (std::memcmp(header_bytes.data(), kPagedShardMagic,
                  sizeof(kPagedShardMagic)) != 0) {
    return Status::IOError("paged shard '" + path +
                           "' lacks the JMPS magic — not a paged shard file");
  }
  // The trailing u64 covers every preceding header byte, so a bit flip
  // anywhere in the header (including the config block) fails here.
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum,
              header_bytes.data() + kPagedShardHeaderSize - sizeof(uint64_t),
              sizeof(uint64_t));
  const uint64_t computed = wire::Checksum64(
      header_bytes.substr(0, kPagedShardHeaderSize - sizeof(uint64_t)));
  if (computed != stored_checksum) {
    return Status::IOError("paged shard '" + path +
                           "' header checksum mismatch — header is corrupt");
  }

  wire::Reader reader(header_bytes);
  std::string magic;
  JOINMI_RETURN_NOT_OK(reader.ReadBytes(sizeof(kPagedShardMagic), &magic));
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&version));
  if (version != kPagedShardVersion) {
    return Status::IOError("paged shard '" + path + "' has format version " +
                           std::to_string(version) +
                           "; this build reads version " +
                           std::to_string(kPagedShardVersion) +
                           " — rebuild it with build_shards --format paged");
  }
  JOINMI_RETURN_NOT_OK(reader.Read(&out->page_size));
  JOINMI_RETURN_NOT_OK(reader.Read(&out->page_count));
  JOINMI_RETURN_NOT_OK(reader.Read(&out->record_count));
  JOINMI_RETURN_NOT_OK(reader.Read(&out->directory_offset));
  JOINMI_RETURN_NOT_OK(reader.Read(&out->directory_size));
  JOINMI_RETURN_NOT_OK(reader.Read(&out->directory_checksum));
  JOINMI_ASSIGN_OR_RETURN(out->config, ReadJoinMIConfig(&reader));

  if (!ValidPageSize(out->page_size)) {
    return Status::IOError("paged shard '" + path + "' declares page size " +
                           std::to_string(out->page_size) +
                           ", outside the supported [" +
                           std::to_string(kMinPageSize) + ", " +
                           std::to_string(kMaxPageSize) + "] range");
  }
  // Both layout checks divide instead of multiplying: a crafted count
  // whose product wraps u64 would otherwise pass them, and the directory
  // parse would then size a vector (or a page walk) by the count itself.
  const uint64_t pages_bytes = out->directory_offset - kPagedShardHeaderSize;
  if (out->directory_offset < kPagedShardHeaderSize ||
      pages_bytes % out->page_size != 0 ||
      pages_bytes / out->page_size != out->page_count) {
    return Status::IOError(
        "paged shard '" + path + "' directory offset " +
        std::to_string(out->directory_offset) + " disagrees with " +
        std::to_string(out->page_count) + " pages of " +
        std::to_string(out->page_size) + " bytes after the " +
        std::to_string(kPagedShardHeaderSize) + "-byte header");
  }
  if (out->directory_size % kDirectoryEntrySize != 0 ||
      out->directory_size / kDirectoryEntrySize != out->record_count) {
    return Status::IOError(
        "paged shard '" + path + "' directory size " +
        std::to_string(out->directory_size) + " does not hold exactly " +
        std::to_string(out->record_count) + " " +
        std::to_string(kDirectoryEntrySize) + "-byte entries");
  }
  return Status::OK();
}

/// pread exactly `len` bytes at `offset`, looping over partial reads.
Status PreadExact(int fd, uint64_t offset, size_t len, const std::string& path,
                  std::string* out) {
  out->resize(len);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, &(*out)[done], len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read of '" + path + "' at offset " +
                             std::to_string(offset + done) + " failed: " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("'" + path + "' ends at byte " +
                             std::to_string(offset + done) + "; " +
                             std::to_string(len) + " bytes at offset " +
                             std::to_string(offset) +
                             " were expected — file truncated");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ParseDirectory(const std::string& bytes, uint64_t expected_checksum,
                      uint64_t record_count, uint64_t page_count,
                      uint32_t page_size, const std::string& path,
                      std::vector<RecordLocation>* out) {
  if (wire::Checksum64(bytes) != expected_checksum) {
    return Status::IOError("paged shard '" + path +
                           "' record directory checksum mismatch — the "
                           "directory is corrupt");
  }
  const uint64_t capacity = PagePayloadCapacity(page_size);
  const uint64_t total_payload = page_count * capacity;
  out->clear();
  out->reserve(record_count);
  wire::Reader reader(bytes);
  for (uint64_t i = 0; i < record_count; ++i) {
    RecordLocation loc;
    JOINMI_RETURN_NOT_OK(reader.Read(&loc.page));
    JOINMI_RETURN_NOT_OK(reader.Read(&loc.offset));
    JOINMI_RETURN_NOT_OK(reader.Read(&loc.length));
    if (loc.page >= page_count || loc.offset >= capacity || loc.length == 0 ||
        loc.page * capacity + loc.offset + loc.length > total_payload) {
      return Status::IOError(
          "paged shard '" + path + "' directory entry " + std::to_string(i) +
          " (page " + std::to_string(loc.page) + ", offset " +
          std::to_string(loc.offset) + ", length " +
          std::to_string(loc.length) + ") points outside the " +
          std::to_string(page_count) + "-page payload area");
    }
    out->push_back(loc);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> BuildPagedShardBytes(
    const JoinMIConfig& config, const std::vector<std::string>& records,
    uint32_t page_size) {
  if (!ValidPageSize(page_size)) {
    return Status::InvalidArgument(
        "page size " + std::to_string(page_size) + " outside the supported [" +
        std::to_string(kMinPageSize) + ", " + std::to_string(kMaxPageSize) +
        "] range");
  }
  const uint64_t capacity = PagePayloadCapacity(page_size);

  // Records pack back-to-back in one logical payload stream; the
  // directory pins down where each starts so readers never need
  // continuation markers inside pages.
  std::string directory;
  uint64_t payload_pos = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].empty()) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     " is empty; paged shards require "
                                     "non-empty records");
    }
    wire::AppendPod<uint32_t>(&directory,
                              static_cast<uint32_t>(payload_pos / capacity));
    wire::AppendPod<uint32_t>(&directory,
                              static_cast<uint32_t>(payload_pos % capacity));
    wire::AppendPod<uint64_t>(&directory, records[i].size());
    payload_pos += records[i].size();
  }
  const uint64_t page_count = (payload_pos + capacity - 1) / capacity;

  std::string out;
  out.reserve(kPagedShardHeaderSize + page_count * page_size +
              directory.size());
  wire::AppendRaw(&out, kPagedShardMagic, sizeof(kPagedShardMagic));
  wire::AppendPod<uint32_t>(&out, kPagedShardVersion);
  wire::AppendPod<uint32_t>(&out, page_size);
  wire::AppendPod<uint64_t>(&out, page_count);
  wire::AppendPod<uint64_t>(&out, static_cast<uint64_t>(records.size()));
  wire::AppendPod<uint64_t>(&out,
                            kPagedShardHeaderSize + page_count * page_size);
  wire::AppendPod<uint64_t>(&out, static_cast<uint64_t>(directory.size()));
  wire::AppendPod<uint64_t>(&out, wire::Checksum64(directory));
  AppendJoinMIConfig(&out, config);
  wire::AppendPod<uint64_t>(&out, wire::Checksum64(out));

  // Slice the record stream into full pages (the last may be partial).
  std::string payload;
  payload.reserve(std::min<uint64_t>(payload_pos, capacity * 4));
  uint32_t page_index = 0;
  auto flush_page = [&]() {
    out += EncodePage(page_index++, payload, page_size);
    payload.clear();
  };
  for (const std::string& record : records) {
    size_t off = 0;
    while (off < record.size()) {
      const size_t take = std::min<size_t>(record.size() - off,
                                           capacity - payload.size());
      payload.append(record, off, take);
      off += take;
      if (payload.size() == capacity) flush_page();
    }
  }
  if (!payload.empty()) flush_page();

  out += directory;
  return out;
}

Result<std::unique_ptr<PagedShardFile>> PagedShardFile::Open(
    const std::string& path, size_t pool_pages) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open paged shard '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<PagedShardFile> file(new PagedShardFile());
  file->fd_ = fd;
  file->path_ = path;

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat paged shard '" + path +
                           "': " + std::strerror(errno));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kPagedShardHeaderSize) {
    return Status::IOError(
        "paged shard '" + path + "' is " + std::to_string(file_size) +
        " bytes; the " + std::to_string(kPagedShardHeaderSize) +
        "-byte JMPS header alone is larger — file is " +
        (file_size == 0 ? std::string("empty") : std::string("truncated")));
  }

  std::string header_bytes;
  JOINMI_RETURN_NOT_OK(
      PreadExact(fd, 0, kPagedShardHeaderSize, path, &header_bytes));
  ParsedHeader header;
  JOINMI_RETURN_NOT_OK(ParseHeader(header_bytes, path, &header));

  const uint64_t expected_size =
      header.directory_offset + header.directory_size;
  if (file_size != expected_size) {
    return Status::IOError(
        "paged shard '" + path + "' is " + std::to_string(file_size) +
        " bytes but its header describes " + std::to_string(expected_size) +
        " (header + " + std::to_string(header.page_count) + " pages + " +
        std::to_string(header.directory_size) + "-byte directory) — file " +
        (file_size < expected_size ? "truncated" : "has trailing garbage"));
  }

  std::string directory_bytes;
  JOINMI_RETURN_NOT_OK(PreadExact(fd, header.directory_offset,
                                  header.directory_size, path,
                                  &directory_bytes));
  JOINMI_RETURN_NOT_OK(ParseDirectory(
      directory_bytes, header.directory_checksum, header.record_count,
      header.page_count, header.page_size, path, &file->directory_));

  file->config_ = header.config;
  file->page_size_ = header.page_size;
  file->page_count_ = header.page_count;
  file->open_stats_.startup_bytes_read =
      kPagedShardHeaderSize + header.directory_size;
  file->open_stats_.file_size = file_size;

  PagedShardFile* raw = file.get();
  file->pool_ = std::make_unique<BufferPool>(
      pool_pages, [raw](BufferPool::PageId id, std::string* payload) {
        return raw->FetchPage(id, payload);
      });
  return file;
}

PagedShardFile::~PagedShardFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PagedShardFile::FetchPage(BufferPool::PageId id,
                                 std::string* payload) const {
  std::string raw;
  JOINMI_RETURN_NOT_OK(PreadExact(
      fd_, kPagedShardHeaderSize + id * page_size_, page_size_, path_, &raw));
  return DecodePage(raw, static_cast<uint32_t>(id), page_size_, payload);
}

Result<std::string> PagedShardFile::ReadRecord(size_t index) const {
  if (index >= directory_.size()) {
    return Status::IndexError("record index " + std::to_string(index) +
                              " out of range for paged shard '" + path_ +
                              "' holding " +
                              std::to_string(directory_.size()) + " records");
  }
  const RecordLocation& loc = directory_[index];
  const uint64_t capacity = PagePayloadCapacity(page_size_);
  uint64_t pos = loc.page * capacity + loc.offset;
  uint64_t remaining = loc.length;
  std::string record;
  record.reserve(remaining);
  // One pin at a time: the ref drops at the end of each iteration, so a
  // pool of any size serves records spanning arbitrarily many pages.
  while (remaining > 0) {
    const uint64_t page = pos / capacity;
    const uint64_t in_page = pos % capacity;
    JOINMI_ASSIGN_OR_RETURN(BufferPool::PageRef ref, pool_->Pin(page));
    const std::string& payload = ref.data();
    if (in_page >= payload.size()) {
      return Status::IOError(
          "paged shard '" + path_ + "' record " + std::to_string(index) +
          " expects data at payload offset " + std::to_string(in_page) +
          " of page " + std::to_string(page) + ", but that page holds only " +
          std::to_string(payload.size()) +
          " bytes — directory and pages disagree");
    }
    const uint64_t take =
        std::min<uint64_t>(remaining, payload.size() - in_page);
    record.append(payload, in_page, take);
    pos += take;
    remaining -= take;
  }
  return record;
}

Status VerifyPagedShardFile(const std::string& path, uint64_t* bad_page) {
  *bad_page = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open paged shard '" + path +
                           "': " + std::strerror(errno));
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  std::string header_bytes;
  JOINMI_RETURN_NOT_OK(
      PreadExact(fd, 0, kPagedShardHeaderSize, path, &header_bytes));
  ParsedHeader header;
  JOINMI_RETURN_NOT_OK(ParseHeader(header_bytes, path, &header));

  // Pass 1: every page decodes (index agrees with its slot, checksum
  // agrees with its payload). Record per-page used-payload sizes for the
  // directory replay.
  const uint64_t capacity = PagePayloadCapacity(header.page_size);
  std::vector<uint64_t> page_payload(header.page_count, 0);
  for (uint64_t i = 0; i < header.page_count; ++i) {
    *bad_page = i;
    std::string raw;
    JOINMI_RETURN_NOT_OK(
        PreadExact(fd, kPagedShardHeaderSize + i * header.page_size,
                   header.page_size, path, &raw));
    std::string payload;
    JOINMI_RETURN_NOT_OK(
        DecodePage(raw, static_cast<uint32_t>(i), header.page_size, &payload));
    if (i + 1 < header.page_count && payload.size() != capacity) {
      return Status::IOError(
          "paged shard '" + path + "' page " + std::to_string(i) +
          " holds " + std::to_string(payload.size()) + " payload bytes but "
          "every page before the last must be full (" +
          std::to_string(capacity) + ")");
    }
    page_payload[i] = payload.size();
  }

  // Pass 2: the directory replays as back-to-back packing over exactly
  // the bytes the pages hold. Directory-level faults report page_count
  // as the "page" — they are not attributable to a single page.
  *bad_page = header.page_count;
  std::string directory_bytes;
  JOINMI_RETURN_NOT_OK(PreadExact(fd, header.directory_offset,
                                  header.directory_size, path,
                                  &directory_bytes));
  std::vector<RecordLocation> directory;
  JOINMI_RETURN_NOT_OK(ParseDirectory(
      directory_bytes, header.directory_checksum, header.record_count,
      header.page_count, header.page_size, path, &directory));
  uint64_t pos = 0;
  for (size_t i = 0; i < directory.size(); ++i) {
    const RecordLocation& loc = directory[i];
    if (loc.page != pos / capacity || loc.offset != pos % capacity) {
      return Status::IOError(
          "paged shard '" + path + "' directory entry " + std::to_string(i) +
          " places the record at (page " + std::to_string(loc.page) +
          ", offset " + std::to_string(loc.offset) +
          ") but back-to-back packing puts it at (page " +
          std::to_string(pos / capacity) + ", offset " +
          std::to_string(pos % capacity) + ")");
    }
    pos += loc.length;
  }
  uint64_t used = 0;
  for (uint64_t bytes : page_payload) used += bytes;
  if (pos != used) {
    return Status::IOError(
        "paged shard '" + path + "' directory accounts for " +
        std::to_string(pos) + " record bytes but the pages hold " +
        std::to_string(used) + " used payload bytes");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace joinmi
