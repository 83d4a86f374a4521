// "JMPS" v2 — the paged shard file format, and the reader that serves it
// through a bounded buffer pool. Where a "JMIX" shard must be read and
// deserialized whole before the first probe, a JMPS shard opens by
// reading only its fixed-size header and record directory: candidate
// records stay on disk in fixed-size checksummed pages (src/storage/page)
// and fault in on demand, so a shard larger than RAM is servable and
// server restart cost is O(directory), not O(shard).
//
// File layout:
//   [file header, kPagedShardHeaderSize bytes]
//   [page 0] [page 1] ... [page page_count-1]      (page_size bytes each)
//   [directory: per record u32 page | u32 offset | u64 length]
//
// File header (little-endian, fixed kPagedShardHeaderSize bytes):
//   magic "JMPS" | u32 version | u32 page_size | u64 page_count
//   | u64 record_count | u64 directory_offset | u64 directory_size
//   | u64 directory_checksum | config block (kJoinMIConfigWireSize bytes)
//   | u64 header_checksum (over all preceding header bytes)
//
// Records are opaque byte strings packed back-to-back across the logical
// concatenation of page payloads: a record that does not fit the rest of
// a page spills into the next page with no continuation marker — the
// directory's (page, offset, length) is the sole locator. Every page's
// payload is full except possibly the last. Integrity is layered: the
// header and directory carry their own checksums (verified at open),
// each page carries a payload checksum (verified on fault-in), so a
// corrupt page fails exactly the probes that touch it while the rest of
// the shard keeps serving.
//
// Records decode only when a probe faults them in, so the header's version
// names the record format too: v1 files hold row-format (v2) sketches, v2
// files v3 column sketches. A v1 file is refused at open, before any
// probe could fail on its records.

#ifndef JOINMI_STORAGE_PAGED_SHARD_FILE_H_
#define JOINMI_STORAGE_PAGED_SHARD_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"

namespace joinmi {
namespace storage {

/// \brief Magic prefix of paged shard files.
extern const char kPagedShardMagic[4];

/// \brief Current paged shard format version.
constexpr uint32_t kPagedShardVersion = 2;

/// \brief Fixed byte size of the file header: 4 magic + 4 version +
/// 4 page_size + 8 page_count + 8 record_count + 8 directory_offset +
/// 8 directory_size + 8 directory_checksum + config + 8 header_checksum.
constexpr size_t kPagedShardHeaderSize = 52 + kJoinMIConfigWireSize + 8;

/// \brief Directory entry: where record i starts and how long it is.
/// A record may continue past its page's payload into following pages.
struct RecordLocation {
  uint32_t page = 0;
  uint32_t offset = 0;
  uint64_t length = 0;
};

/// \brief Bytes read while opening, vs the whole file — the receipt that
/// open really was header + directory only.
struct PagedOpenStats {
  uint64_t startup_bytes_read = 0;
  uint64_t file_size = 0;
};

/// \brief Builds the complete byte image of a JMPS v2 file holding
/// `records` (opaque byte strings, directory order = insertion order)
/// under `config`. Fails if `page_size` is out of bounds or any record
/// is empty (a zero-length record is indistinguishable from a directory
/// bug at read time).
Result<std::string> BuildPagedShardBytes(const JoinMIConfig& config,
                                         const std::vector<std::string>& records,
                                         uint32_t page_size);

/// \brief A JMPS file opened for serving: header + directory in memory,
/// pages faulted through a BufferPool of `pool_pages` frames.
///
/// ReadRecord is safe to call from many threads concurrently; each call
/// pins at most one page at a time, so any pool size >= 1 is deadlock
/// free (tiny pools just evict more).
class PagedShardFile {
 public:
  /// \brief Opens `path`, reading and validating only the file header and
  /// the record directory (both checksummed). Page payloads are not
  /// touched until ReadRecord faults them in.
  static Result<std::unique_ptr<PagedShardFile>> Open(const std::string& path,
                                                      size_t pool_pages);

  ~PagedShardFile();
  PagedShardFile(const PagedShardFile&) = delete;
  PagedShardFile& operator=(const PagedShardFile&) = delete;

  /// \brief Reads record `index`'s bytes, faulting (and checksum-verifying)
  /// the page(s) it spans.
  Result<std::string> ReadRecord(size_t index) const;

  const JoinMIConfig& config() const { return config_; }
  size_t num_records() const { return directory_.size(); }
  uint32_t page_size() const { return page_size_; }
  uint64_t page_count() const { return page_count_; }
  const std::vector<RecordLocation>& directory() const { return directory_; }
  const PagedOpenStats& open_stats() const { return open_stats_; }
  BufferPoolStats pool_stats() const { return pool_->stats(); }
  size_t pool_capacity() const { return pool_->capacity(); }

 private:
  PagedShardFile() = default;

  /// pread of page `id`'s raw bytes + DecodePage; the pool's fetcher.
  Status FetchPage(BufferPool::PageId id, std::string* payload) const;

  int fd_ = -1;
  std::string path_;
  JoinMIConfig config_;
  uint32_t page_size_ = 0;
  uint64_t page_count_ = 0;
  std::vector<RecordLocation> directory_;
  PagedOpenStats open_stats_;
  std::unique_ptr<BufferPool> pool_;
};

/// \brief Walks every page of the file at `path`, verifying page indices
/// and payload checksums, then replays the directory against the pages'
/// used-payload accounting (records packed back-to-back, all pages full
/// except the last, lengths summing to the used payload). On the first
/// bad page, returns a non-OK status and sets `*bad_page` to its index
/// (or to page_count for directory-level inconsistencies).
Status VerifyPagedShardFile(const std::string& path, uint64_t* bad_page);

}  // namespace storage
}  // namespace joinmi

#endif  // JOINMI_STORAGE_PAGED_SHARD_FILE_H_
