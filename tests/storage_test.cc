// Tests for the storage layer's page codec and buffer pool: page
// round-trips and corruption detection, and the pool's hard invariants —
// budget never exceeded, pinned pages never evicted, one fetch per
// residency, fetch failures leaving no residue — including under
// concurrent hammering (run under TSan to certify the locking). Also the
// JMPS header's layout checks against counts whose products wrap u64.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/sketch/serialize.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"
#include "src/storage/paged_shard_file.h"

namespace joinmi {
namespace storage {
namespace {

// ------------------------------------------------------------------ Pages

TEST(PageTest, RoundTripsPayloads) {
  const uint32_t page_size = 128;
  for (const std::string payload :
       {std::string(), std::string("x"), std::string("hello page"),
        std::string(PagePayloadCapacity(page_size), 'z')}) {
    const std::string encoded = EncodePage(7, payload, page_size);
    EXPECT_EQ(encoded.size(), page_size);
    std::string decoded;
    ASSERT_TRUE(DecodePage(encoded, 7, page_size, &decoded).ok());
    EXPECT_EQ(decoded, payload);
  }
}

TEST(PageTest, ValidatesPageSizeBounds) {
  EXPECT_FALSE(ValidPageSize(0));
  EXPECT_FALSE(ValidPageSize(kMinPageSize - 1));
  EXPECT_FALSE(ValidPageSize(kMaxPageSize + 1));
  EXPECT_TRUE(ValidPageSize(kMinPageSize));
  EXPECT_TRUE(ValidPageSize(kDefaultPageSize));
}

TEST(PageTest, DetectsCorruptionTruncationAndMisdirection) {
  const std::string encoded = EncodePage(3, "payload bytes", 256);
  std::string decoded;

  // Any single flipped payload byte must fail the checksum.
  std::string corrupt = encoded;
  corrupt[kPageHeaderSize + 2] ^= 0x40;
  Status status = DecodePage(corrupt, 3, 256, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("corrupt"), std::string::npos) << status;

  // A short read is a truncation, reported with both sizes.
  status = DecodePage(encoded.substr(0, 100), 3, 256, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("100"), std::string::npos) << status;
  EXPECT_NE(status.message().find("256"), std::string::npos) << status;

  // A declared payload larger than the payload area must be rejected
  // before any read past the buffer.
  std::string oversized = encoded;
  const uint32_t bogus = 4096;
  std::memcpy(&oversized[4], &bogus, sizeof(bogus));
  status = DecodePage(oversized, 3, 256, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("payload area"), std::string::npos)
      << status;

  // The right bytes at the wrong offset are misdirection, not corruption.
  status = DecodePage(encoded, 4, 256, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("misdirected"), std::string::npos)
      << status;
}

// ------------------------------------------------------------ Buffer pool

// Fetcher over a synthetic "file" of distinct page payloads, counting
// fetches per id so tests can assert single-flight and retry behavior.
class CountingFetcher {
 public:
  explicit CountingFetcher(size_t num_pages) : num_pages_(num_pages) {}

  BufferPool::Fetcher AsFetcher() {
    return [this](BufferPool::PageId id, std::string* data) {
      return Fetch(id, data);
    };
  }

  Status Fetch(BufferPool::PageId id, std::string* data) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++fetches_[id];
    }
    if (fail_.load()) return Status::IOError("injected fetch failure");
    if (id >= num_pages_) return Status::IOError("page beyond file");
    *data = PayloadFor(id);
    return Status::OK();
  }

  static std::string PayloadFor(BufferPool::PageId id) {
    return "payload-" + std::to_string(id) + "-" +
           std::string(32 + id % 7, 'p');
  }

  uint64_t fetches(BufferPool::PageId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return fetches_[id];
  }

  uint64_t total_fetches() {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto& [id, count] : fetches_) total += count;
    return total;
  }

  void set_fail(bool fail) { fail_.store(fail); }

 private:
  const size_t num_pages_;
  std::mutex mutex_;
  std::map<BufferPool::PageId, uint64_t> fetches_;
  std::atomic<bool> fail_{false};
};

TEST(BufferPoolTest, HitsMissesAndEviction) {
  CountingFetcher fetcher(10);
  BufferPool pool(2, fetcher.AsFetcher());
  EXPECT_EQ(pool.capacity(), 2u);

  {
    auto ref = pool.Pin(0);
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_EQ(ref->data(), CountingFetcher::PayloadFor(0));
  }
  {
    // Re-pin is a hit: no second fetch.
    auto ref = pool.Pin(0);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(fetcher.fetches(0), 1u);
  }
  // Fill the second frame, then a third page must evict one of the two.
  ASSERT_TRUE(pool.Pin(1).ok());
  ASSERT_TRUE(pool.Pin(2).ok());
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(pool.resident(), pool.capacity());
  EXPECT_EQ(pool.pinned(), 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  CountingFetcher fetcher(64);
  BufferPool pool(3, fetcher.AsFetcher());

  auto pinned = pool.Pin(0);
  ASSERT_TRUE(pinned.ok());
  const std::string expected = CountingFetcher::PayloadFor(0);
  // Stream far more pages than frames past the pinned one; its frame must
  // survive every sweep and its payload must never be overwritten.
  for (BufferPool::PageId id = 1; id < 40; ++id) {
    auto ref = pool.Pin(id);
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_EQ(pinned->data(), expected) << "after streaming page " << id;
  }
  EXPECT_EQ(fetcher.fetches(0), 1u);
  // Released, page 0 becomes evictable; the pool keeps working.
  pinned = BufferPool::PageRef();
  for (BufferPool::PageId id = 40; id < 50; ++id) {
    ASSERT_TRUE(pool.Pin(id).ok());
  }
}

TEST(BufferPoolTest, CapacityZeroClampsToOne) {
  CountingFetcher fetcher(4);
  BufferPool pool(0, fetcher.AsFetcher());
  EXPECT_EQ(pool.capacity(), 1u);
  ASSERT_TRUE(pool.Pin(0).ok());
  ASSERT_TRUE(pool.Pin(1).ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPoolTest, FetchFailureLeavesNoResidue) {
  CountingFetcher fetcher(4);
  BufferPool pool(2, fetcher.AsFetcher());

  fetcher.set_fail(true);
  auto failed = pool.Pin(0);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(pool.pinned(), 0u);

  // The failed fault left the frame free: the same id retries the fetch
  // and succeeds once the underlying storage recovers.
  fetcher.set_fail(false);
  auto retried = pool.Pin(0);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->data(), CountingFetcher::PayloadFor(0));
  EXPECT_EQ(fetcher.fetches(0), 2u);
}

TEST(BufferPoolTest, ConcurrentSamePageFetchesOnce) {
  CountingFetcher fetcher(2);
  BufferPool pool(2, fetcher.AsFetcher());

  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<size_t> ok_count{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ref = pool.Pin(1);
      if (ref.ok() && ref->data() == CountingFetcher::PayloadFor(1)) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads);
  // All pins of one residency share a single fetch. (The page is never
  // evicted here — the pool has a frame to spare.)
  EXPECT_EQ(fetcher.fetches(1), 1u);
  EXPECT_EQ(pool.stats().hits, kThreads - 1);
}

TEST(BufferPoolTest, BudgetHoldsUnderConcurrentHammering) {
  constexpr size_t kCapacity = 4;
  constexpr size_t kPages = 64;
  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 300;

  CountingFetcher fetcher(kPages);
  BufferPool pool(kCapacity, fetcher.AsFetcher());

  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        const BufferPool::PageId id = (t * 31 + i * 17) % kPages;
        auto ref = pool.Pin(id);
        if (!ref.ok() || ref->data() != CountingFetcher::PayloadFor(id)) {
          violated.store(true);
          return;
        }
        // Sampled while pins are live on many threads.
        if (pool.resident() > kCapacity) violated.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(violated.load());
  EXPECT_LE(pool.resident(), kCapacity);
  EXPECT_EQ(pool.pinned(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIterations);
  EXPECT_GT(stats.evictions, 0u);
  // Every fetch was a miss and vice versa.
  EXPECT_EQ(fetcher.total_fetches(), stats.misses);
}

TEST(BufferPoolTest, BlocksWhenAllPinnedThenRecovers) {
  CountingFetcher fetcher(8);
  BufferPool pool(2, fetcher.AsFetcher());

  auto ref_a = pool.Pin(0);
  auto ref_b = pool.Pin(1);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());

  // With every frame pinned, a third Pin must block — not fail, not
  // evict a pinned page — until a ref drops.
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto ref = pool.Pin(2);
    if (ref.ok()) acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  ref_a = BufferPool::PageRef();  // free one frame
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// ------------------------------------------------------- JMPS header sizes

// Header field offsets (paged_shard_file.h layout).
constexpr size_t kPageCountOffset = 12;
constexpr size_t kRecordCountOffset = 20;

// A valid one-record JMPS image with 64-byte pages whose u64 header field
// at `offset` is overwritten with `value`, header checksum recomputed — a
// file that is corrupt only in that one count.
std::string WithHeaderField(size_t offset, uint64_t value) {
  auto bytes = BuildPagedShardBytes(JoinMIConfig(), {std::string(100, 'r')},
                                    kMinPageSize);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  std::string out = *bytes;
  std::memcpy(&out[offset], &value, sizeof(value));
  const uint64_t checksum = wire::Checksum64(
      out.substr(0, kPagedShardHeaderSize - sizeof(uint64_t)));
  std::memcpy(&out[kPagedShardHeaderSize - sizeof(uint64_t)], &checksum,
              sizeof(checksum));
  return out;
}

// Open and Verify both return IOError for the file — no exception, no
// allocation sized by the crafted count.
void ExpectBothRejectWithIOError(const std::string& bytes,
                                 const std::string& name) {
  const std::string path = testing::TempDir() + "/joinmi_storage_" + name;
  ASSERT_TRUE(wire::WriteFileBytes(bytes, path).ok());
  auto opened = PagedShardFile::Open(path, 2);
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status();
  uint64_t bad_page = 0;
  const Status verified = VerifyPagedShardFile(path, &bad_page);
  EXPECT_TRUE(verified.IsIOError()) << verified;
  std::filesystem::remove(path);
}

TEST(PagedShardHeaderTest, RecordCountWhoseDirectorySizeWrapsIsRejected) {
  // (2^60 + 1) * 16 wraps to 16, the one-record directory's real size.
  ExpectBothRejectWithIOError(
      WithHeaderField(kRecordCountOffset, (uint64_t{1} << 60) + 1),
      "record_count.jmps");
}

TEST(PagedShardHeaderTest, PageCountWhosePagesSizeWrapsIsRejected) {
  // 2^58 more pages of 64 bytes add exactly 2^64, so the product still
  // lands on the real directory offset.
  auto bytes = BuildPagedShardBytes(JoinMIConfig(), {std::string(100, 'r')},
                                    kMinPageSize);
  ASSERT_TRUE(bytes.ok());
  uint64_t page_count = 0;
  std::memcpy(&page_count, bytes->data() + kPageCountOffset,
              sizeof(page_count));
  ExpectBothRejectWithIOError(
      WithHeaderField(kPageCountOffset, page_count + (uint64_t{1} << 58)),
      "page_count.jmps");
}

}  // namespace
}  // namespace storage
}  // namespace joinmi
