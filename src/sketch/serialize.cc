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

uint64_t Checksum64(const std::string& data) {
  // FNV-1a, 64-bit offset basis / prime. The basis previously had a
  // dropped digit (1469598103934665603), silently making this a
  // non-standard hash; the known-answer tests in serialize_test.cc pin
  // the real constants now. Manifests written under the old basis fail
  // their checksum check on load — repartition to regenerate them.
  uint64_t hash = 14695981039346656037ULL;
  for (unsigned char byte : data) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
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
// v1 had no hash_seed field; v2 inserts it after the side byte.
constexpr uint32_t kVersion = 2;

// Value tags in the wire format.
enum : uint8_t {
  kTagNull = 0,
  kTagInt64 = 1,
  kTagDouble = 2,
  kTagString = 3,
};

// Bytes of the header, up to and including the entry count.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 1 + 1 + 4 + 4 * 8;

// Bytes of a value's tag and payload.
size_t ValueBytes(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 1 + 8;
    case DataType::kString:
      return 1 + 4 + v.str().size();
  }
  return 1;
}

void AppendValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      wire::AppendPod<uint8_t>(out, kTagNull);
      break;
    case DataType::kInt64:
      wire::AppendPod<uint8_t>(out, kTagInt64);
      wire::AppendPod<int64_t>(out, v.int64());
      break;
    case DataType::kDouble:
      wire::AppendPod<uint8_t>(out, kTagDouble);
      wire::AppendPod<double>(out, v.dbl());
      break;
    case DataType::kString:
      wire::AppendPod<uint8_t>(out, kTagString);
      wire::AppendLengthPrefixed(out, v.str());
      break;
  }
}

Result<Value> ReadValue(wire::Reader* reader) {
  uint8_t tag = 0;
  JOINMI_RETURN_NOT_OK(reader->Read(&tag));
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagInt64: {
      int64_t v = 0;
      JOINMI_RETURN_NOT_OK(reader->Read(&v));
      return Value(v);
    }
    case kTagDouble: {
      double v = 0.0;
      JOINMI_RETURN_NOT_OK(reader->Read(&v));
      return Value(v);
    }
    case kTagString: {
      std::string s;
      JOINMI_RETURN_NOT_OK(reader->ReadLengthPrefixed(&s));
      return Value(std::move(s));
    }
    default:
      return Status::IOError("unknown value tag in sketch buffer");
  }
}

}  // namespace

std::string SerializeSketch(const Sketch& sketch) {
  // The exact size first, so the bytes are appended into one buffer that
  // never reallocates.
  size_t size = kHeaderBytes + sketch.entries.size() * (8 + 8);
  for (const SketchEntry& entry : sketch.entries) {
    size += ValueBytes(entry.value);
  }
  std::string out;
  out.reserve(size);
  wire::AppendRaw(&out, kMagic, sizeof(kMagic));
  wire::AppendPod<uint32_t>(&out, kVersion);
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(sketch.method));
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(sketch.side));
  wire::AppendPod<uint32_t>(&out, sketch.hash_seed);
  wire::AppendPod<uint64_t>(&out, sketch.capacity);
  wire::AppendPod<uint64_t>(&out, sketch.source_rows);
  wire::AppendPod<uint64_t>(&out, sketch.source_distinct_keys);
  wire::AppendPod<uint64_t>(&out, sketch.entries.size());
  for (const SketchEntry& entry : sketch.entries) {
    wire::AppendPod<uint64_t>(&out, entry.key_hash);
    wire::AppendPod<double>(&out, entry.rank);
    AppendValue(&out, entry.value);
  }
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
    return Status::IOError("unsupported sketch version " +
                           std::to_string(version));
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
  // each entry needs at least 17 bytes on the wire. Divide rather than
  // multiply so a crafted count cannot wrap past the check.
  if (count > reader.remaining() / 17) {
    return Status::IOError("sketch entry count exceeds buffer size");
  }
  sketch.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SketchEntry entry;
    JOINMI_RETURN_NOT_OK(reader.Read(&entry.key_hash));
    JOINMI_RETURN_NOT_OK(reader.Read(&entry.rank));
    JOINMI_ASSIGN_OR_RETURN(entry.value, ReadValue(&reader));
    sketch.entries.push_back(std::move(entry));
  }
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
