#include "src/sketch/serialize.h"

#include <cstring>
#include <fstream>
#include <sstream>

namespace joinmi {

namespace wire {

void AppendLengthPrefixed(std::string* out, const std::string& s) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  AppendRaw(out, s.data(), s.size());
}

uint64_t Checksum64(const void* data, size_t len, uint64_t state) {
  // FNV-1a, 64-bit offset basis / prime. The basis previously had a
  // dropped digit (1469598103934665603), silently making this a
  // non-standard hash; the known-answer tests in serialize_test.cc pin
  // the real constants now. Manifests written under the old basis fail
  // their checksum check on load — repartition to regenerate them.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    state ^= bytes[i];
    state *= 1099511628211ULL;
  }
  return state;
}

Status Reader::ReadRaw(size_t len, void* out) {
  if (len > data_.size() - pos_) return Status::IOError("truncated buffer");
  if (len == 0) return Status::OK();  // `out` may be null
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Reader::ReadBytes(size_t len, std::string* out) {
  if (pos_ + len > data_.size()) {
    return Status::IOError("truncated string payload");
  }
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Reader::ReadLengthPrefixed(std::string* out) {
  uint32_t len = 0;
  JOINMI_RETURN_NOT_OK(Read(&len));
  return ReadBytes(len, out);
}

Status WriteFileBytes(const std::string& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  // close() flushes; a flush failure (e.g. full disk) sets failbit, which
  // would otherwise be silently discarded in the destructor.
  out.close();
  if (!out) return Status::IOError("failed writing '" + path + "'");
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("failed reading '" + path + "'");
  return buffer.str();
}

}  // namespace wire

namespace {

constexpr char kMagic[4] = {'J', 'M', 'S', 'K'};
constexpr uint32_t kVersion = 3;

// What the value words hold, in the byte after the entry count.
enum : uint8_t {
  kAllNumeric = 0,  // every word a double
  kAllString = 1,   // every word a hash, and no null
  kMixed = 2,       // a type column follows the words
};

// Bytes of the header, up to and including the value-kind byte.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 1 + 1 + 4 + 4 * 8 + 1;

template <typename T>
void AppendColumn(std::string* out, const std::vector<T>& column) {
  wire::AppendRaw(out, column.data(), column.size() * sizeof(T));
}

template <typename T>
Status ReadColumn(wire::Reader* reader, size_t count, std::vector<T>* out) {
  out->resize(count);
  return reader->ReadRaw(count * sizeof(T), out->data());
}

// The sketch's types from its value kind and its type column, which a
// non-mixed kind omits; fails unless the kind is the canonical one for
// those types.
Status ReadValueTypes(uint8_t kind, wire::Reader* reader, Sketch* sketch) {
  const size_t count = sketch->size();
  ValueTypes& types = sketch->value_types;
  switch (kind) {
    case kAllNumeric:
      if (count > 0) types.Add(DataType::kDouble);
      return Status::OK();
    case kAllString:
      if (count == 0) break;
      types.Add(DataType::kString);
      return Status::OK();
    case kMixed: {
      JOINMI_RETURN_NOT_OK(ReadColumn(reader, count, &sketch->mixed_types));
      for (size_t i = 0; i < count; ++i) {
        const DataType type = sketch->mixed_types[i];
        if (type != DataType::kNull && type != DataType::kDouble &&
            type != DataType::kString) {
          return Status::IOError("unknown value type tag in sketch buffer");
        }
        if (type == DataType::kNull &&
            sketch->value_words[i] != Value::Null().Hash()) {
          return Status::IOError("null entry with a non-null value word");
        }
        types.Add(type);
      }
      if (!types.homogeneous()) return Status::OK();
      break;
    }
  }
  return Status::IOError("sketch value kind " + std::to_string(kind) +
                         " does not match its " + std::to_string(count) +
                         " entries");
}

}  // namespace

std::string SerializeSketch(const Sketch& sketch) {
  const size_t count = sketch.size();
  const uint8_t kind = sketch.value_types.all_numeric ? kAllNumeric
                       : sketch.value_types.homogeneous() ? kAllString
                                                          : kMixed;
  std::string out;
  out.reserve(kHeaderBytes + count * 3 * 8 +
              (kind == kMixed ? count : 0));
  wire::AppendRaw(&out, kMagic, sizeof(kMagic));
  wire::AppendPod<uint32_t>(&out, kVersion);
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(sketch.method));
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(sketch.side));
  wire::AppendPod<uint32_t>(&out, sketch.hash_seed);
  wire::AppendPod<uint64_t>(&out, sketch.capacity);
  wire::AppendPod<uint64_t>(&out, sketch.source_rows);
  wire::AppendPod<uint64_t>(&out, sketch.source_distinct_keys);
  wire::AppendPod<uint64_t>(&out, count);
  wire::AppendPod<uint8_t>(&out, kind);
  AppendColumn(&out, sketch.key_hashes);
  AppendColumn(&out, sketch.ranks);
  AppendColumn(&out, sketch.value_words);
  if (kind == kMixed) AppendColumn(&out, sketch.mixed_types);
  return out;
}

Result<Sketch> DeserializeSketch(const std::string& data) {
  wire::Reader reader(data);
  char magic[4];
  JOINMI_RETURN_NOT_OK(reader.Read(&magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad sketch magic");
  }
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&version));
  if (version != kVersion) {
    return Status::IOError(
        "unsupported sketch version " + std::to_string(version) +
        "; this build reads only JMSK v" + std::to_string(kVersion) +
        " — re-sketch the source tables into a new index "
        "(SketchIndex::IndexRepository, WriteIndexFile), then rebuild its "
        "shards with build_shards");
  }
  uint8_t method = 0, side = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&method));
  JOINMI_RETURN_NOT_OK(reader.Read(&side));
  if (method > static_cast<uint8_t>(SketchMethod::kCsk)) {
    return Status::IOError("unknown sketch method tag");
  }
  if (side > static_cast<uint8_t>(SketchSide::kCandidate)) {
    return Status::IOError("unknown sketch side tag");
  }
  Sketch sketch;
  sketch.method = static_cast<SketchMethod>(method);
  sketch.side = static_cast<SketchSide>(side);
  JOINMI_RETURN_NOT_OK(reader.Read(&sketch.hash_seed));
  uint64_t capacity = 0, source_rows = 0, distinct = 0, count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&capacity));
  JOINMI_RETURN_NOT_OK(reader.Read(&source_rows));
  JOINMI_RETURN_NOT_OK(reader.Read(&distinct));
  JOINMI_RETURN_NOT_OK(reader.Read(&count));
  sketch.capacity = capacity;
  sketch.source_rows = source_rows;
  sketch.source_distinct_keys = distinct;
  // An upper bound check so corrupted counts cannot trigger huge allocs:
  // each entry needs 24 bytes on the wire. Divide rather than multiply so
  // a crafted count cannot wrap past the check.
  if (count > reader.remaining() / 24) {
    return Status::IOError("sketch entry count exceeds buffer size");
  }
  // The kind byte precedes the columns, but its check reads them.
  uint8_t kind = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&kind));
  JOINMI_RETURN_NOT_OK(ReadColumn(&reader, count, &sketch.key_hashes));
  JOINMI_RETURN_NOT_OK(ReadColumn(&reader, count, &sketch.ranks));
  JOINMI_RETURN_NOT_OK(ReadColumn(&reader, count, &sketch.value_words));
  JOINMI_RETURN_NOT_OK(ReadValueTypes(kind, &reader, &sketch));
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after sketch payload");
  }
  return sketch;
}

Status WriteSketchFile(const Sketch& sketch, const std::string& path) {
  return wire::WriteFileBytes(SerializeSketch(sketch), path);
}

Result<Sketch> ReadSketchFile(const std::string& path) {
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  return DeserializeSketch(data);
}

}  // namespace joinmi
