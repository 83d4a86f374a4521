#include "src/table/value.h"

#include <cmath>
#include <cstdio>

#include "src/common/hashing.h"

namespace joinmi {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

Result<double> Value::AsDouble() const {
  if (is_double()) return dbl();
  if (is_int64()) return static_cast<double>(int64());
  return Status::TypeError("value of type " +
                           std::string(DataTypeToString(type())) +
                           " is not numeric");
}

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_string()) return str();
  if (is_int64()) return std::to_string(int64());
  // Shortest round-trip representation for doubles.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", dbl());
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, dbl());
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == dbl()) return shorter;
  }
  return buf;
}

bool Value::operator==(const Value& other) const {
  const bool a_num = is_int64() || is_double();
  const bool b_num = other.is_int64() || other.is_double();
  if (a_num && b_num) {
    const double a = is_double() ? dbl() : static_cast<double>(int64());
    const double b =
        other.is_double() ? other.dbl() : static_cast<double>(other.int64());
    return a == b;
  }
  return data_ == other.data_;
}

bool Value::operator<(const Value& other) const {
  const bool a_num = is_int64() || is_double();
  const bool b_num = other.is_int64() || other.is_double();
  if (is_null() || other.is_null()) return is_null() && !other.is_null();
  if (a_num && b_num) {
    const double a = is_double() ? dbl() : static_cast<double>(int64());
    const double b =
        other.is_double() ? other.dbl() : static_cast<double>(other.int64());
    return a < b;
  }
  if (a_num != b_num) return a_num;  // numbers sort before strings
  return str() < other.str();
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x6E756C6CULL;  // "null"
  if (is_string()) {
    return Mix64(MurmurHash3_32(str(), /*seed=*/0x5EEDu) |
                 (static_cast<uint64_t>(str().size()) << 32));
  }
  // Hash numerics through their double representation so 3 == 3.0 hash
  // identically (consistent with operator== via AsDouble comparisons in
  // group-by keys; exact int64s beyond 2^53 are out of scope for this data).
  return NumericValueHash(is_double() ? dbl() : static_cast<double>(int64()));
}

uint64_t NumericValueHash(double number) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(number));
  __builtin_memcpy(&bits, &number, sizeof(bits));
  if (number == 0.0) bits = 0;  // +0.0 / -0.0 collapse
  return Mix64(bits ^ 0xD0B1E5ULL);
}

}  // namespace joinmi
