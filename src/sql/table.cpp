#include "sql/table.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace oda::sql {

std::string Schema::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) os << ", ";
    os << fields_[i].name << ":" << type_name(fields_[i].type);
  }
  os << ")";
  return os.str();
}

std::size_t Column::null_count() const {
  return static_cast<std::size_t>(std::count(valid_.begin(), valid_.end(), std::uint8_t{0}));
}

void Column::append(const Value& v) {
  if (v.is_null()) {
    append_null();
    return;
  }
  switch (type_) {
    case DataType::kInt64: append_int(v.as_int()); break;
    case DataType::kFloat64: append_double(v.as_double()); break;
    case DataType::kString: append_string(v.as_string()); break;
    case DataType::kBool: append_bool(v.as_bool()); break;
    case DataType::kNull: append_null(); break;
  }
}

void Column::append_null() {
  switch (type_) {
    case DataType::kInt64: ints_.push_back(0); break;
    case DataType::kFloat64: doubles_.push_back(0.0); break;
    case DataType::kString: strings_.emplace_back(); break;
    case DataType::kBool: bools_.push_back(0); break;
    case DataType::kNull: break;
  }
  valid_.push_back(0);
}

void Column::append_int(std::int64_t v) {
  if (type_ == DataType::kFloat64) {
    doubles_.push_back(static_cast<double>(v));
  } else if (type_ == DataType::kInt64) {
    ints_.push_back(v);
  } else {
    throw std::runtime_error("Column: int into non-numeric column");
  }
  valid_.push_back(1);
}

void Column::append_double(double v) {
  if (type_ == DataType::kInt64) {
    ints_.push_back(static_cast<std::int64_t>(v));
  } else if (type_ == DataType::kFloat64) {
    doubles_.push_back(v);
  } else {
    throw std::runtime_error("Column: double into non-numeric column");
  }
  valid_.push_back(1);
}

void Column::append_string(std::string v) {
  if (type_ != DataType::kString) throw std::runtime_error("Column: string into non-string column");
  strings_.push_back(std::move(v));
  valid_.push_back(1);
}

void Column::append_bool(bool v) {
  if (type_ != DataType::kBool) throw std::runtime_error("Column: bool into non-bool column");
  bools_.push_back(v ? 1 : 0);
  valid_.push_back(1);
}

Value Column::get(std::size_t i) const {
  if (is_null(i)) return Value::null();
  switch (type_) {
    case DataType::kInt64: return Value(ints_[i]);
    case DataType::kFloat64: return Value(doubles_[i]);
    case DataType::kString: return Value(strings_[i]);
    case DataType::kBool: return Value(bools_[i] != 0);
    case DataType::kNull: return Value::null();
  }
  return Value::null();
}

namespace {

template <typename T>
void append_slice(std::vector<T>& dst, const std::vector<T>& src, std::size_t lo, std::size_t hi) {
  dst.insert(dst.end(), src.begin() + static_cast<std::ptrdiff_t>(lo),
             src.begin() + static_cast<std::ptrdiff_t>(hi));
}

template <typename T>
void append_gather(std::vector<T>& dst, const std::vector<T>& src, std::span<const std::size_t> rows) {
  const std::size_t base = dst.size();
  dst.resize(base + rows.size());
  T* out = dst.data() + base;
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = src[rows[i]];
}

}  // namespace

void Column::append_range(const Column& src, std::size_t lo, std::size_t hi) {
  if (src.type_ != type_) throw std::invalid_argument("Column: type mismatch in append_range");
  if (lo > hi || hi > src.size()) throw std::out_of_range("Column: append_range out of range");
  switch (type_) {
    case DataType::kInt64: append_slice(ints_, src.ints_, lo, hi); break;
    case DataType::kFloat64: append_slice(doubles_, src.doubles_, lo, hi); break;
    case DataType::kString: append_slice(strings_, src.strings_, lo, hi); break;
    case DataType::kBool: append_slice(bools_, src.bools_, lo, hi); break;
    case DataType::kNull: break;
  }
  append_slice(valid_, src.valid_, lo, hi);
}

void Column::append_rows(const Column& src, std::span<const std::size_t> rows) {
  if (src.type_ != type_) throw std::invalid_argument("Column: type mismatch in append_rows");
  if (!rows.empty() && *std::max_element(rows.begin(), rows.end()) >= src.size()) {
    throw std::out_of_range("Column: append_rows index out of range");
  }
  switch (type_) {
    case DataType::kInt64: append_gather(ints_, src.ints_, rows); break;
    case DataType::kFloat64: append_gather(doubles_, src.doubles_, rows); break;
    case DataType::kString: append_gather(strings_, src.strings_, rows); break;
    case DataType::kBool: append_gather(bools_, src.bools_, rows); break;
    case DataType::kNull: break;
  }
  append_gather(valid_, src.valid_, rows);
}

void Column::reserve(std::size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case DataType::kInt64: ints_.reserve(n); break;
    case DataType::kFloat64: doubles_.reserve(n); break;
    case DataType::kString: strings_.reserve(n); break;
    case DataType::kBool: bools_.reserve(n); break;
    case DataType::kNull: break;
  }
}

void Column::truncate(std::size_t n) {
  if (n >= valid_.size()) return;
  valid_.resize(n);
  switch (type_) {
    case DataType::kInt64: ints_.resize(n); break;
    case DataType::kFloat64: doubles_.resize(n); break;
    case DataType::kString: strings_.resize(n); break;
    case DataType::kBool: bools_.resize(n); break;
    case DataType::kNull: break;
  }
}

std::size_t Column::memory_bytes() const {
  std::size_t b = valid_.capacity();
  b += ints_.capacity() * sizeof(std::int64_t);
  b += doubles_.capacity() * sizeof(double);
  b += bools_.capacity();
  for (const auto& s : strings_) b += sizeof(std::string) + s.capacity();
  return b;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
}

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  if (columns_.size() != schema_.size()) throw std::invalid_argument("Table: column/schema arity mismatch");
  num_rows_ = columns_.empty() ? 0 : columns_.front().size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].size() != num_rows_) throw std::invalid_argument("Table: ragged columns");
    if (columns_[i].type() != schema_.field(i).type) throw std::invalid_argument("Table: column type mismatch");
  }
}

const Column& Table::column(std::string_view name) const { return columns_.at(col_index(name)); }

std::size_t Table::col_index(std::string_view name) const {
  const std::size_t i = schema_.index_of(name);
  if (i == Schema::npos) {
    throw std::out_of_range("Table: no column named '" + std::string(name) + "' in " + schema_.to_string());
  }
  return i;
}

void Table::append_row(std::span<const Value> row) {
  if (row.size() != columns_.size()) throw std::invalid_argument("Table: row arity mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) columns_[i].append(row[i]);
  ++num_rows_;
}

void Table::append_row(std::initializer_list<Value> row) {
  append_row(std::span<const Value>(row.begin(), row.size()));
}

void Table::append_table(const Table& other) {
  if (!(other.schema_ == schema_)) throw std::invalid_argument("Table: schema mismatch in append_table");
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].append_range(other.columns_[c], 0, other.num_rows_);
  }
  num_rows_ += other.num_rows_;
}

void Table::append_rows(const Table& other, std::span<const std::size_t> rows) {
  if (!(other.schema_ == schema_)) throw std::invalid_argument("Table: schema mismatch in append_rows");
  for (std::size_t c = 0; c < columns_.size(); ++c) columns_[c].append_rows(other.columns_[c], rows);
  num_rows_ += rows.size();
}

Table Table::take(std::span<const std::size_t> indices) const {
  Table out(schema_);
  out.append_rows(*this, indices);
  return out;
}

Table Table::slice(std::size_t lo, std::size_t hi) const {
  hi = std::min(hi, num_rows_);
  lo = std::min(lo, hi);
  Table out(schema_);
  for (std::size_t c = 0; c < columns_.size(); ++c) out.columns_[c].append_range(columns_[c], lo, hi);
  out.num_rows_ = hi - lo;
  return out;
}

std::vector<Value> Table::row(std::size_t i) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.get(i));
  return out;
}

void Table::reserve(std::size_t n) {
  for (auto& c : columns_) c.reserve(n);
}

void Table::truncate(std::size_t n) {
  if (n >= num_rows_) return;
  for (auto& c : columns_) c.truncate(n);
  num_rows_ = n;
}

std::size_t Table::memory_bytes() const {
  return std::accumulate(columns_.begin(), columns_.end(), std::size_t{0},
                         [](std::size_t acc, const Column& c) { return acc + c.memory_bytes(); });
}

std::string Table::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << schema_.to_string() << " rows=" << num_rows_ << "\n";
  const std::size_t n = std::min(num_rows_, max_rows);
  for (std::size_t r = 0; r < n; ++r) {
    os << "  ";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << " | ";
      os << columns_[c].get(r).to_string();
    }
    os << "\n";
  }
  if (n < num_rows_) os << "  ... (" << (num_rows_ - n) << " more)\n";
  return os.str();
}

namespace {
void append_csv_field(std::string& out, const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}
}  // namespace

std::string to_csv(const Table& t) {
  std::string out;
  for (std::size_t c = 0; c < t.schema().size(); ++c) {
    if (c) out += ',';
    append_csv_field(out, t.schema().field(c).name);
  }
  out += '\n';
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      if (c) out += ',';
      if (!t.column(c).is_null(r)) append_csv_field(out, t.column(c).get(r).to_string());
    }
    out += '\n';
  }
  return out;
}

}  // namespace oda::sql
