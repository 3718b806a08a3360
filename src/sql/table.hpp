// Columnar table: the unit of data exchanged between pipeline stages.
//
// A Table is schema + columns. Bronze tables are "long" (one row per
// sensor observation); Silver tables are "wide" (one row per node per
// window). Pipelines transform Tables with the operators in ops.hpp and
// agg.hpp — the medallion anatomy of Fig 4-b.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sql/value.hpp"

namespace oda::sql {

struct Field {
  std::string name;
  DataType type = DataType::kFloat64;

  bool operator==(const Field&) const = default;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Field> fields) : fields_(fields) {}
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  std::size_t size() const { return fields_.size(); }
  const Field& field(std::size_t i) const { return fields_.at(i); }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of a column by name; returns npos if absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of(std::string_view name) const {
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return i;
    }
    return npos;
  }
  bool contains(std::string_view name) const { return index_of(name) != npos; }

  void add(Field f) { fields_.push_back(std::move(f)); }

  bool operator==(const Schema&) const = default;

  std::string to_string() const;

 private:
  std::vector<Field> fields_;
};

/// A single typed column with a validity (non-null) mask. Physical
/// storage is a dense typed vector; the Value API converts at the edge.
class Column {
 public:
  explicit Column(DataType type = DataType::kFloat64) : type_(type) {}

  DataType type() const { return type_; }
  std::size_t size() const { return valid_.size(); }
  bool is_null(std::size_t i) const { return valid_[i] == 0; }
  std::size_t null_count() const;

  void append(const Value& v);
  void append_null();
  void append_int(std::int64_t v);
  void append_double(double v);
  void append_string(std::string v);
  void append_bool(bool v);

  Value get(std::size_t i) const;
  std::int64_t int_at(std::size_t i) const { return ints_[i]; }
  double double_at(std::size_t i) const {
    return type_ == DataType::kInt64 ? static_cast<double>(ints_[i]) : doubles_[i];
  }
  const std::string& str_at(std::size_t i) const { return strings_[i]; }
  bool bool_at(std::size_t i) const { return bools_[i] != 0; }

  /// Typed bulk views (valid only for the matching type).
  std::span<const std::int64_t> ints() const { return ints_; }
  std::span<const double> doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// Typed bulk appends from a column of the same type (throws on a type
  /// mismatch): rows [lo, hi) of `src`, or the rows `src` has at `rows`
  /// (in that order). Null cells copy as nulls.
  void append_range(const Column& src, std::size_t lo, std::size_t hi);
  void append_rows(const Column& src, std::span<const std::size_t> rows);

  void reserve(std::size_t n);
  /// Drop all rows beyond the first `n` (no-op when n >= size).
  void truncate(std::size_t n);

  /// Approximate in-memory footprint in bytes (for tier accounting).
  std::size_t memory_bytes() const;

 private:
  DataType type_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<std::uint8_t> bools_;
  std::vector<std::uint8_t> valid_;
};

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  /// Construct from pre-built columns (all must have equal length and
  /// types matching the schema). Used by columnar readers.
  Table(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }
  bool empty() const { return num_rows_ == 0; }

  const Column& column(std::size_t i) const { return columns_.at(i); }
  const Column& column(std::string_view name) const;
  Column& column_mut(std::size_t i) { return columns_.at(i); }
  /// Column index by name; throws if absent.
  std::size_t col_index(std::string_view name) const;

  /// Append one row; values must match the schema arity (types are
  /// checked per column, nulls always allowed).
  void append_row(std::span<const Value> row);
  void append_row(std::initializer_list<Value> row);

  /// Append all rows of `other`, column by column (schemas must be equal).
  void append_table(const Table& other);

  /// Gather-append: append the rows of `other` at `rows`, in that order,
  /// column by column (schemas must be equal; indices must be in range).
  void append_rows(const Table& other, std::span<const std::size_t> rows);

  /// Select a subset of rows by index, preserving order.
  Table take(std::span<const std::size_t> indices) const;

  /// Rows [lo, hi) as a new table (hi is clamped to num_rows()).
  Table slice(std::size_t lo, std::size_t hi) const;

  /// Row as values (for tests/debug; the hot path is columnar).
  std::vector<Value> row(std::size_t i) const;

  void reserve(std::size_t n);
  /// Drop all rows beyond the first `n` (batch rollback support).
  void truncate(std::size_t n);
  std::size_t memory_bytes() const;

  /// Pretty-print up to `max_rows` rows (debug/report output).
  std::string to_string(std::size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  std::size_t num_rows_ = 0;
};

/// RFC-4180-style CSV export (header row; quotes doubled; fields with
/// commas/quotes/newlines quoted; nulls as empty fields) — the exchange
/// format for publicly released dataset artifacts.
std::string to_csv(const Table& t);

}  // namespace oda::sql
