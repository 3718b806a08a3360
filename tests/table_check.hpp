// Exact checks on sql::Tables for tests that compare results with each
// other or pin them to values recorded from a reference build:
// expect_tables_equal compares every cell by Value equality, and
// TableDigest folds a table's schema and cells, doubles by their bit
// pattern, into an FNV-1a digest (the tests/wire_digest.hpp pattern).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.hpp"
#include "sql/table.hpp"

namespace oda::testing {

/// Same schema, same row count, and every cell equal as a sql::Value
/// (type, null flag and value; doubles compare with ==, not to_csv's %g).
inline void expect_tables_equal(const sql::Table& a, const sql::Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.column(c).get(r), b.column(c).get(r)) << "row " << r << " col " << c;
    }
  }
}

class TableDigest {
 public:
  /// Fold the schema (each field's name and type) and the row count, then
  /// every cell in row order: its type, its null flag and its value — an
  /// int64 as is, a double by its bit pattern, a string length-prefixed.
  void add(const sql::Table& t) {
    word(t.num_columns());
    for (const auto& f : t.schema().fields()) {
      text(f.name);
      word(static_cast<std::uint64_t>(f.type));
    }
    word(t.num_rows());
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      for (std::size_t c = 0; c < t.num_columns(); ++c) cell(t.column(c), r);
    }
  }
  /// Fold a separator, e.g. a query's index in a matrix.
  void mark(std::uint64_t index) { word(index); }
  std::uint64_t value() const { return h_; }

 private:
  void cell(const sql::Column& col, std::size_t r) {
    word(static_cast<std::uint64_t>(col.type()));
    const bool null = col.is_null(r);
    word(null ? 1 : 0);
    if (null) return;
    switch (col.type()) {
      case sql::DataType::kInt64: word(static_cast<std::uint64_t>(col.int_at(r))); break;
      case sql::DataType::kFloat64: word(std::bit_cast<std::uint64_t>(col.double_at(r))); break;
      case sql::DataType::kString: text(col.str_at(r)); break;
      case sql::DataType::kBool: word(col.bool_at(r) ? 1 : 0); break;
      case sql::DataType::kNull: break;
    }
  }
  void word(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h_ = common::fnv1a(std::span<const std::uint8_t>(b, 8), h_);
  }
  void text(std::string_view s) {
    word(s.size());
    h_ = common::fnv1a(s, h_);
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace oda::testing
