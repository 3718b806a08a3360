// Columnar file format tests: round-trips, projection, row-group
// predicate pushdown, nulls, inspection.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "storage/columnar.hpp"
#include "table_check.hpp"

namespace oda::storage {
namespace {

using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;
using testing::expect_tables_equal;

Table telemetry_like(std::size_t rows, std::uint64_t seed = 1) {
  common::Rng rng(seed);
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kString},
                 {"value", DataType::kFloat64},
                 {"healthy", DataType::kBool}}};
  for (std::size_t i = 0; i < rows; ++i) {
    t.append_row({Value(static_cast<std::int64_t>(i * 1000)),
                  Value("n" + std::to_string(i % 32)),
                  rng.bernoulli(0.05) ? Value::null() : Value(rng.normal(250, 30)),
                  Value(rng.bernoulli(0.99))});
  }
  return t;
}

TEST(ColumnarTest, RoundTripAllTypesWithNulls) {
  const Table t = telemetry_like(500);
  expect_tables_equal(t, read_columnar(write_columnar(t)));
}

TEST(ColumnarTest, EmptyTable) {
  Table t{Schema{{"a", DataType::kInt64}}};
  const Table back = read_columnar(write_columnar(t));
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back.schema(), t.schema());
}

TEST(ColumnarTest, MultipleRowGroups) {
  const Table t = telemetry_like(1000);
  WriteOptions opts;
  opts.row_group_rows = 128;
  const auto blob = write_columnar(t, opts);
  const auto info = inspect_columnar(blob);
  EXPECT_EQ(info.num_rows, 1000u);
  EXPECT_EQ(info.num_row_groups, 8u);  // ceil(1000/128)
  expect_tables_equal(t, read_columnar(blob));
}

TEST(ColumnarTest, ProjectionReadsSubset) {
  const Table t = telemetry_like(300);
  ReadOptions opts;
  opts.columns = {"value", "time"};
  const Table sub = read_columnar(write_columnar(t), opts);
  EXPECT_EQ(sub.num_columns(), 2u);
  EXPECT_EQ(sub.schema().field(0).name, "value");
  EXPECT_EQ(sub.num_rows(), 300u);
  EXPECT_EQ(sub.column("time").int_at(7), t.column("time").int_at(7));
}

TEST(ColumnarTest, ProjectionUnknownColumnThrows) {
  const auto blob = write_columnar(telemetry_like(10));
  ReadOptions opts;
  opts.columns = {"nope"};
  EXPECT_THROW(read_columnar(blob, opts), std::out_of_range);
}

TEST(ColumnarTest, RowGroupPushdownPrunes) {
  const Table t = telemetry_like(1000);  // time 0..999000
  WriteOptions wopts;
  wopts.row_group_rows = 100;
  const auto blob = write_columnar(t, wopts);

  ReadOptions ropts;
  ropts.filter = RowGroupFilter{"time", 500000, 599000};
  const Table sub = read_columnar(blob, ropts);
  // Exactly one row group (rows 500..599) survives pruning.
  EXPECT_EQ(sub.num_rows(), 100u);
  EXPECT_EQ(sub.column("time").int_at(0), 500000);
}

TEST(ColumnarTest, PushdownNonOverlappingReturnsEmpty) {
  const auto blob = write_columnar(telemetry_like(100));
  ReadOptions ropts;
  ropts.filter = RowGroupFilter{"time", 100000000, 200000000};
  EXPECT_EQ(read_columnar(blob, ropts).num_rows(), 0u);
}

TEST(ColumnarTest, PushdownUnknownColumnScansAll) {
  const auto blob = write_columnar(telemetry_like(100));
  ReadOptions ropts;
  ropts.filter = RowGroupFilter{"missing", 0, 1};
  EXPECT_EQ(read_columnar(blob, ropts).num_rows(), 100u);
}

TEST(ColumnarTest, BadMagicThrows) {
  std::vector<std::uint8_t> junk{'J', 'U', 'N', 'K', 0, 0};
  EXPECT_THROW(read_columnar(junk), std::runtime_error);
  EXPECT_THROW(inspect_columnar(junk), std::runtime_error);
}

TEST(ColumnarTest, NoLzPassStillRoundTrips) {
  const Table t = telemetry_like(200);
  WriteOptions opts;
  opts.lz_pass = false;
  expect_tables_equal(t, read_columnar(write_columnar(t, opts)));
}

TEST(ColumnarTest, AllNullColumn) {
  Table t{Schema{{"v", DataType::kFloat64}}};
  for (int i = 0; i < 50; ++i) t.append_row({Value::null()});
  const Table back = read_columnar(write_columnar(t));
  ASSERT_EQ(back.num_rows(), 50u);
  for (std::size_t r = 0; r < 50; ++r) EXPECT_TRUE(back.column(0).is_null(r));
}

TEST(ColumnarTest, CompressionBeatsRawOnTelemetry) {
  const Table t = telemetry_like(20000);
  const auto blob = write_columnar(t);
  // Raw columnar floats+ints alone would be ~ rows*(8+8+~4+1).
  EXPECT_LT(blob.size(), t.num_rows() * 21 / 2);  // at least ~2x
}

class ColumnarFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColumnarFuzz, RandomTablesRoundTrip) {
  common::Rng rng(GetParam());
  const std::size_t rows = rng.uniform_index(2000);
  Table t = telemetry_like(rows, GetParam());
  WriteOptions opts;
  opts.row_group_rows = 1 + rng.uniform_index(500);
  opts.lz_pass = rng.bernoulli(0.5);
  expect_tables_equal(t, read_columnar(write_columnar(t, opts)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarFuzz, ::testing::Values(5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace oda::storage
