// Binary (de)serialization of sketches. Sketches are built offline and
// probed online, so a discovery deployment needs to persist them; this is
// the storage format for the sketch index.
//
// Format (little-endian, version-tagged):
//   magic "JMSK" | u32 version | u8 method | u8 side | u32 hash_seed
//   | u64 capacity | u64 source_rows | u64 source_distinct_keys
//   | u64 entry_count | u8 value_kind
//   | entry_count x u64 key_hash | entry_count x f64 rank
//   | entry_count x u64 value_word
//   | value_kind 2 only: entry_count x u8 value type
// The columns are the Sketch's own, copied whole. value_kind says what the
// value words hold: 0 every one a double (an empty sketch is 0), 1 every
// one a Value::Hash() of a string, 2 a mix — strings beside numbers, or a
// null — and then each entry's DataType follows (kNull, kDouble, or
// kString). A kind that is not the one its entries call for is rejected,
// so every sketch has one encoding.
//
// Version history: v1 lacked the hash_seed field; v2 stored entries row by
// row with each value's tag and bytes (a string's whole text); v3
// (current) stores the columns. Only v3 is read: a v1 or v2 buffer fails
// with a status that names its version and the rebuild (re-sketch the
// source tables, then build_shards).

#ifndef JOINMI_SKETCH_SERIALIZE_H_
#define JOINMI_SKETCH_SERIALIZE_H_

#include <cstring>
#include <string>

#include "src/common/status.h"
#include "src/sketch/sketch.h"

namespace joinmi {

/// Little-endian wire primitives shared by the sketch format and the
/// composite formats built on it (e.g. the discovery sketch index).
namespace wire {

inline void AppendRaw(std::string* out, const void* data, size_t len) {
  out->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

/// \brief u32 length + bytes.
void AppendLengthPrefixed(std::string* out, const std::string& s);

/// \brief FNV-1a 64-bit offset basis: the checksum of zero bytes.
inline constexpr uint64_t kChecksum64Basis = 14695981039346656037ULL;

/// \brief FNV-1a 64-bit content checksum. Not cryptographic — it exists so
/// composite formats (e.g. the discovery shard manifest) can detect
/// truncated, bit-flipped, or swapped payload files before parsing them.
/// The pointer/length form continues from `state`, the checksum of the
/// bytes before `data`, so a checksum taken in chunks equals the one-shot
/// one.
uint64_t Checksum64(const void* data, size_t len,
                    uint64_t state = kChecksum64Basis);
inline uint64_t Checksum64(const std::string& data) {
  return Checksum64(data.data(), data.size());
}

/// \brief Writes `data` to `path`, flushing before reporting success so a
/// full disk cannot masquerade as a persisted file.
Status WriteFileBytes(const std::string& data, const std::string& path);

/// \brief Reads a whole binary file.
Result<std::string> ReadFileBytes(const std::string& path);

/// \brief Bounds-checked sequential reader over a serialized buffer.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  template <typename T>
  Status Read(T* out) {
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::IOError("truncated buffer");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadBytes(size_t len, std::string* out);

  /// \brief Copies the next `len` bytes to `out`.
  Status ReadRaw(size_t len, void* out);

  /// \brief Reads a u32 length + bytes string.
  Status ReadLengthPrefixed(std::string* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace wire

/// \brief Serializes a sketch to a binary string (current format version).
std::string SerializeSketch(const Sketch& sketch);

/// \brief Parses a serialized sketch; validates magic, version, tags, and
/// payload bounds, so truncated or corrupted inputs fail cleanly. Only
/// the current version (v3) is read; an older buffer fails with
/// "unsupported sketch version N" and the rebuild to run.
Result<Sketch> DeserializeSketch(const std::string& data);

/// \brief Writes a sketch to a file.
Status WriteSketchFile(const Sketch& sketch, const std::string& path);

/// \brief Reads a sketch from a file.
Result<Sketch> ReadSketchFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_SERIALIZE_H_
