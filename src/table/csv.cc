#include "src/table/csv.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "src/common/string_util.h"
#include "src/table/type_inference.h"

namespace joinmi {

namespace {

/// Splits a full CSV document into rows of fields, honoring quotes.
Status ParseCsv(const std::string& text, char delim,
                std::vector<std::vector<std::string>>* rows) {
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_data = false;
  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      row_has_data = true;
    } else if (c == delim) {
      row.push_back(std::move(field));
      field.clear();
      row_has_data = true;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
      if (row_has_data || !field.empty()) {
        row.push_back(std::move(field));
        field.clear();
        rows->push_back(std::move(row));
        row.clear();
        row_has_data = false;
      }
    } else {
      field += c;
      row_has_data = true;
    }
  }
  if (in_quotes) return Status::IOError("unterminated quoted CSV field");
  if (row_has_data || !field.empty()) {
    row.push_back(std::move(field));
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<Table>> ReadCsvString(const std::string& text,
                                             const CsvReadOptions& options) {
  std::vector<std::vector<std::string>> rows;
  JOINMI_RETURN_NOT_OK(ParseCsv(text, options.delimiter, &rows));
  if (rows.empty()) {
    return Status::IOError("empty CSV input");
  }
  std::vector<std::string> header;
  size_t first_data_row = 0;
  if (options.has_header) {
    header = rows[0];
    first_data_row = 1;
  } else {
    header.resize(rows[0].size());
    for (size_t i = 0; i < header.size(); ++i) {
      header[i] = "col" + std::to_string(i);
    }
  }
  const size_t num_cols = header.size();
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return Status::IOError(
          StrFormat("CSV row %zu has %zu fields, expected %zu", r,
                    rows[r].size(), num_cols));
    }
  }
  std::vector<std::pair<std::string, std::shared_ptr<Column>>> named;
  named.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    std::vector<std::string> cells;
    cells.reserve(rows.size() - first_data_row);
    for (size_t r = first_data_row; r < rows.size(); ++r) {
      cells.push_back(rows[r][c]);
    }
    std::shared_ptr<Column> col;
    if (options.infer_types) {
      JOINMI_ASSIGN_OR_RETURN(col, ParseColumn(cells));
    } else {
      col = Column::MakeString(std::move(cells));
    }
    named.emplace_back(std::string(Trim(header[c])), std::move(col));
  }
  return Table::FromColumns(std::move(named));
}

Result<std::shared_ptr<Table>> ReadCsvFile(const std::string& path,
                                           const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

}  // namespace joinmi
