// Binary (de)serialization of sketches. Sketches are built offline and
// probed online, so a discovery deployment needs to persist them; this is
// the storage format for the sketch index.
//
// Format (little-endian, version-tagged):
//   magic "JMSK" | u32 version | u8 method | u8 side | u32 hash_seed
//   | u64 capacity | u64 source_rows | u64 source_distinct_keys
//   | u64 entry_count
//   | entries: u64 key_hash, f64 rank, u8 value_tag, value payload
// Value payload: int64 (8 bytes), double (8 bytes), or u32 length + bytes
// for strings; tag 0 encodes null.
//
// Version history: v1 lacked the hash_seed field; v2 (current) records the
// seed so JoinSketches can enforce its same-seed precondition on
// deserialized sketches. v1 buffers are rejected: their seed is unknown,
// so a v1 sketch could not be checked for coordination and must be
// re-sketched.

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

/// \brief FNV-1a 64-bit content checksum. Not cryptographic — it exists so
/// composite formats (e.g. the discovery shard manifest) can detect
/// truncated, bit-flipped, or swapped payload files before parsing them.
uint64_t Checksum64(const std::string& data);

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
/// the current version (v2) is read; a seedless v1 buffer fails with
/// "unsupported sketch version 1".
Result<Sketch> DeserializeSketch(const std::string& data);

/// \brief Writes a sketch to a file.
Status WriteSketchFile(const Sketch& sketch, const std::string& path);

/// \brief Reads a sketch from a file.
Result<Sketch> ReadSketchFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_SERIALIZE_H_
