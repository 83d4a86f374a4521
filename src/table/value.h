// Type-erased cell values and logical column types. One estimator/sketch
// stack serves string, integer, and floating data by operating on Values.

#ifndef JOINMI_TABLE_VALUE_H_
#define JOINMI_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/common/status.h"

namespace joinmi {

/// \brief Logical column type.
///
/// Following the paper's simplification (Section II), kString models
/// unordered-categorical ("discrete") data while kInt64/kDouble model
/// ordered-numerical data; integers with repeats behave as discrete or
/// mixture depending on the estimator.
enum class DataType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

/// \brief True for kInt64 / kDouble.
inline bool IsNumeric(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

/// \brief A nullable, type-erased cell.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}
  Value(int64_t v) : data_(v) {}            // NOLINT(runtime/explicit)
  Value(double v) : data_(v) {}             // NOLINT(runtime/explicit)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  DataType type() const {
    if (is_int64()) return DataType::kInt64;
    if (is_double()) return DataType::kDouble;
    if (is_string()) return DataType::kString;
    return DataType::kNull;
  }

  /// \brief Underlying int64; precondition: is_int64().
  int64_t int64() const { return std::get<int64_t>(data_); }
  /// \brief Underlying double; precondition: is_double().
  double dbl() const { return std::get<double>(data_); }
  /// \brief Underlying string; precondition: is_string().
  const std::string& str() const { return std::get<std::string>(data_); }

  /// \brief Numeric view: int64 widened to double. Error for string/null.
  Result<double> AsDouble() const;
  /// \brief Numeric view, or `fallback` for string/null — AsDouble without
  /// building a Status, for callers that already know the type.
  double NumericOr(double fallback) const {
    if (is_double()) return dbl();
    if (is_int64()) return static_cast<double>(int64());
    return fallback;
  }

  /// \brief Canonical string form ("" for null) used for hashing string keys
  /// and for CSV output.
  std::string ToString() const;

  /// \brief Equality; numeric values compare as doubles so Value(3) ==
  /// Value(3.0), consistent with Hash().
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// \brief Total order: null < int64/double (by numeric value) < string.
  /// Numeric cross-type comparisons compare as double.
  bool operator<(const Value& other) const;

  /// \brief Stable 64-bit hash consistent with operator== (numeric values
  /// equal as doubles hash identically).
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// \brief Value::Hash() of a numeric value, from its double (an int64
/// hashes as its widened double). Value::Hash() calls it, so a caller
/// holding only the number derives the same hash.
uint64_t NumericValueHash(double number);

}  // namespace joinmi

#endif  // JOINMI_TABLE_VALUE_H_
