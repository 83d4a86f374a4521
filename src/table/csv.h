// Minimal RFC-4180-ish CSV reader: quoted fields, embedded commas and
// quotes, header row, automatic type inference. Used by the examples so
// downstream users can feed their own data files.

#ifndef JOINMI_TABLE_CSV_H_
#define JOINMI_TABLE_CSV_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/table/table.h"

namespace joinmi {

struct CsvReadOptions {
  char delimiter = ',';
  /// First row is a header of column names.
  bool has_header = true;
  /// Run type inference; otherwise all columns are strings.
  bool infer_types = true;
};

/// \brief Parses CSV text into a Table.
Result<std::shared_ptr<Table>> ReadCsvString(const std::string& text,
                                             const CsvReadOptions& options = {});

/// \brief Reads a CSV file into a Table.
Result<std::shared_ptr<Table>> ReadCsvFile(const std::string& path,
                                           const CsvReadOptions& options = {});

}  // namespace joinmi

#endif  // JOINMI_TABLE_CSV_H_
