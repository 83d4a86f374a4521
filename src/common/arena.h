// Bump-pointer arena for per-query scratch memory. The discovery hot path
// (merge one train sketch against thousands of candidate sketches)
// needs many short-lived buffers — match index lists, per-strip
// temporaries — whose lifetimes all end when the query does. Allocating
// them individually puts malloc/free on the per-probe critical path;
// carving them out of an arena that is Reset() between queries makes the
// steady state allocation-free: blocks are retained across Reset, so after
// the first query warms the arena no further heap traffic occurs unless a
// query needs strictly more scratch than any before it.
//
// Lifetime contract: memory returned by Allocate* is valid until the next
// Reset() (or destruction). The arena never runs destructors — only
// trivially destructible payloads belong here.

#ifndef JOINMI_COMMON_ARENA_H_
#define JOINMI_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace joinmi {

/// \brief A growable bump allocator with O(1) Reset.
class Arena {
 public:
  /// \brief Default size of each internal block. Oversized requests get a
  /// dedicated block of exactly their size instead of growing this.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;

  /// \brief Returns `size` bytes aligned to `align` (a power of two,
  /// at most alignof(std::max_align_t)). size 0 returns a unique non-null
  /// pointer like operator new does.
  void* AllocateBytes(size_t size, size_t align);

  /// \brief Typed array allocation; T must be trivially destructible
  /// (Reset never runs destructors). The memory is uninitialized.
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reclaimed without running destructors");
    return static_cast<T*>(AllocateBytes(count * sizeof(T), alignof(T)));
  }

  /// \brief Rewinds every block to empty without releasing any of them —
  /// the steady-state path: after the arena has grown to a query's working
  /// set, Reset + reuse touches the heap zero times.
  void Reset();

  /// \brief Bytes handed out since the last Reset.
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// \brief Total block bytes currently owned (survives Reset).
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// \brief Number of owned blocks (survives Reset).
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    char* data;
    size_t size;
  };

  /// Makes `current_` a block with at least `min_bytes` of headroom,
  /// reusing retained blocks before mallocing a new one.
  void NextBlock(size_t min_bytes);

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t current_ = 0;   // index into blocks_ of the block being bumped
  size_t offset_ = 0;    // bump offset within blocks_[current_]
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace joinmi

#endif  // JOINMI_COMMON_ARENA_H_
