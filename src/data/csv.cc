#include "data/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "data/ingest.h"

namespace muds {

namespace {

// Incremental CSV record scanner over a string_view.
class RecordScanner {
 public:
  RecordScanner(std::string_view text, const CsvOptions& options)
      : text_(text), options_(options) {}

  // Reads the next record into `fields`. Returns false at end of input.
  // Fully-empty records (a line break with no field content, separator, or
  // quote before it — outside quotes) are blank lines, not one-empty-field
  // records: they are skipped, wherever they appear. On a malformed record
  // (unterminated quote) sets `error`.
  bool NextRecord(std::vector<std::string>* fields, Status* error) {
    fields->clear();
    std::string field;
    bool in_quotes = false;
    bool saw_content = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (in_quotes) {
        if (c == options_.quote) {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == options_.quote) {
            field += options_.quote;  // Doubled quote = literal quote.
            pos_ += 2;
          } else {
            in_quotes = false;
            ++pos_;
          }
        } else {
          field += c;
          ++pos_;
        }
        continue;
      }
      if (c == options_.quote && field.empty()) {
        in_quotes = true;
        saw_content = true;
        ++pos_;
      } else if (c == options_.separator) {
        fields->push_back(std::move(field));
        field.clear();
        saw_content = true;
        ++pos_;
      } else if (c == '\n' || c == '\r') {
        // Consume the line break ("\r\n" counts as one).
        if (c == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
          ++pos_;
        }
        ++pos_;
        if (!saw_content) continue;  // Blank line: skip, keep scanning.
        fields->push_back(std::move(field));
        ++record_number_;
        return true;
      } else {
        field += c;
        saw_content = true;
        ++pos_;
      }
    }
    if (in_quotes) {
      *error = Status::ParseError("unterminated quoted field in record " +
                                  std::to_string(record_number_ + 1));
      return false;
    }
    if (saw_content) {
      fields->push_back(std::move(field));
      ++record_number_;
      return true;
    }
    return false;
  }

  int64_t record_number() const { return record_number_; }

 private:
  std::string_view text_;
  CsvOptions options_;
  size_t pos_ = 0;
  int64_t record_number_ = 0;
};

bool NeedsQuoting(const std::string& value, const CsvOptions& options) {
  for (char c : value) {
    if (c == options.separator || c == options.quote || c == '\n' ||
        c == '\r') {
      return true;
    }
  }
  return false;
}

// `force_quote` quotes even when the content would not demand it — used for
// an empty field that is the only field of its record, which unquoted would
// serialize as a blank line and be skipped on re-read.
void AppendField(const std::string& value, const CsvOptions& options,
                 std::string* out, bool force_quote = false) {
  if (!force_quote && !NeedsQuoting(value, options)) {
    *out += value;
    return;
  }
  *out += options.quote;
  for (char c : value) {
    if (c == options.quote) *out += options.quote;
    *out += c;
  }
  *out += options.quote;
}

}  // namespace

Result<Relation> CsvReader::ReadString(std::string_view text,
                                       const CsvOptions& options,
                                       std::string name) {
  if (options.io == CsvIoMode::kStream) {
    return ReadStringStream(text, options, std::move(name));
  }
  return IngestCsv(text, options, std::move(name));
}

Result<Relation> CsvReader::ReadStringStream(std::string_view text,
                                             const CsvOptions& options,
                                             std::string name) {
  RecordScanner scanner(text, options);
  std::vector<std::string> fields;
  Status error;
  // NULL ≠ NULL: rewrite each null cell into a per-cell unique value, so
  // nulls never compare equal to anything (including each other).
  int64_t null_counter = 0;
  const auto apply_nulls = [&](std::vector<std::string>* record) {
    if (options.nulls != NullSemantics::kNullUnequal) return;
    for (std::string& cell : *record) {
      if (cell == options.null_token) {
        cell = std::string("\x01null#") + std::to_string(null_counter++);
      }
    }
  };

  std::vector<std::string> column_names;
  if (options.has_header) {
    if (!scanner.NextRecord(&fields, &error)) {
      if (!error.ok()) return error;
      return Status::ParseError("empty input: missing header record");
    }
    column_names = fields;
  }

  RelationBuilder* builder = nullptr;
  std::optional<RelationBuilder> storage;
  int64_t rows_read = 0;
  while (scanner.NextRecord(&fields, &error)) {
    if (builder == nullptr) {
      // Create the builder before honoring max_rows: the first record
      // defines the schema even when no data row survives the cap (e.g.
      // --no-header --max-rows=0 still yields a 0-row relation).
      if (!options.has_header) {
        column_names.reserve(fields.size());
        for (size_t i = 0; i < fields.size(); ++i) {
          column_names.push_back("col" + std::to_string(i));
        }
      }
      if (static_cast<int>(column_names.size()) > ColumnSet::kMaxColumns) {
        return Status::InvalidArgument(
            "too many columns: " + std::to_string(column_names.size()) +
            " > " + std::to_string(ColumnSet::kMaxColumns));
      }
      storage.emplace(column_names, name);
      builder = &*storage;
      if (!options.has_header) {
        if (options.max_rows >= 0 && rows_read >= options.max_rows) break;
        apply_nulls(&fields);
        builder->AddRow(fields);
        ++rows_read;
        continue;
      }
    }
    if (options.max_rows >= 0 && rows_read >= options.max_rows) break;
    if (fields.size() != column_names.size()) {
      return Status::ParseError(
          name + ": data row " + std::to_string(rows_read + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(column_names.size()));
    }
    apply_nulls(&fields);
    builder->AddRow(fields);
    ++rows_read;
  }
  if (!error.ok()) return error;

  if (builder == nullptr) {
    if (column_names.empty()) {
      return Status::ParseError("empty input");
    }
    if (static_cast<int>(column_names.size()) > ColumnSet::kMaxColumns) {
      return Status::InvalidArgument(
          "too many columns: " + std::to_string(column_names.size()));
    }
    storage.emplace(column_names, name);
    builder = &*storage;
  }
  return std::move(*builder).Build();
}

Result<Relation> CsvReader::ReadFile(const std::string& path,
                                     const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  if (options.io == CsvIoMode::kStream) {
    // Seed path: stream through an ostringstream (two buffers).
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IoError("error reading " + path);
    return ReadString(buffer.str(), options, path);
  }
  // Buffered path: size the backing buffer from the file length and fill
  // it with one read — the parse then borrows string_views from it.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("error reading " + path);
  if (static_cast<size_t>(size) >= options.mmap_min_bytes) {
    // Large input: parse straight out of a read-only mapping. The relation
    // owns copies of everything it keeps, so the mapping is dropped as soon
    // as the parse returns.
    Result<MappedFile> mapped = MappedFile::Open(path);
    if (mapped.ok() && mapped.value().mapped()) {
      mapped.value().AdviseSequential();
      return ReadString(mapped.value().view(), options, path);
    }
    // Fall through to the buffered read on any mapping failure — including
    // a file that shrank to zero between the size probe above and the
    // mmap, where Open yields an unmapped (empty) file rather than an
    // error. The buffered read below re-checks the byte count against the
    // probed size and reports a clear I/O error instead of parsing a
    // truncated view.
  }
  in.seekg(0, std::ios::beg);
  std::string buffer(static_cast<size_t>(size), '\0');
  if (size > 0) {
    in.read(buffer.data(), size);
    if (in.bad() || in.gcount() != size) {
      return Status::IoError("error reading " + path);
    }
  }
  return ReadString(buffer, options, path);
}

std::string CsvWriter::ToString(const Relation& relation,
                                const CsvOptions& options) {
  std::string out;
  const bool single_column = relation.NumColumns() == 1;
  for (int c = 0; c < relation.NumColumns(); ++c) {
    if (c > 0) out += options.separator;
    AppendField(relation.ColumnName(c), options, &out,
                single_column && relation.ColumnName(c).empty());
  }
  out += '\n';
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (int c = 0; c < relation.NumColumns(); ++c) {
      if (c > 0) out += options.separator;
      AppendField(relation.Value(row, c), options, &out,
                  single_column && relation.Value(row, c).empty());
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteFile(const Relation& relation, const std::string& path,
                            const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot create " + path);
  out << ToString(relation, options);
  if (!out) return Status::IoError("error writing " + path);
  return Status::Ok();
}

}  // namespace muds
