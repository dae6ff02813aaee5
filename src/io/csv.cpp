#include "io/csv.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace rv::io {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(std::ostream& os) : os_(os) {}

void CsvWriter::write_row(const CsvRow& fields) {
  bool first = true;
  for (const std::string& f : fields) {
    if (!first) os_ << ',';
    os_ << csv_escape(f);
    first = false;
  }
  os_ << '\n';
}

void CsvWriter::header(const CsvRow& names) {
  if (header_written_ || rows_ > 0) {
    throw std::logic_error("CsvWriter: header after data");
  }
  write_row(names);
  header_written_ = true;
}

void CsvWriter::row(const CsvRow& fields) {
  write_row(fields);
  ++rows_;
}

void CsvWriter::row_numeric(const std::vector<double>& values, int precision) {
  CsvRow fields;
  fields.reserve(values.size());
  for (const double v : values) fields.push_back(format_double(v, precision));
  row(fields);
}

std::vector<CsvRow> parse_csv(const std::string& text) {
  std::vector<CsvRow> rows;
  CsvRow current;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        current.push_back(std::move(field));
        field.clear();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !field.empty() || !current.empty()) {
          current.push_back(std::move(field));
          field.clear();
          rows.push_back(std::move(current));
          current.clear();
          row_has_content = false;
        }
        break;
      default:
        field.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) throw std::invalid_argument("parse_csv: unterminated quote");
  if (row_has_content || !field.empty() || !current.empty()) {
    current.push_back(std::move(field));
    rows.push_back(std::move(current));
  }
  return rows;
}

std::string format_double(double v, int precision) {
  // "%.*g" is what an ostream prints for a double at `precision` with
  // the default float field (libstdc++ formats through it), without
  // building a stream per call.
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  if (n < static_cast<int>(sizeof buf)) return std::string(buf, n);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*g", precision, v);
  return out;
}

}  // namespace rv::io
