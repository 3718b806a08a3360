// Property tests for the typed, column-at-a-time SQL kernels. group_by
// and window_aggregate are checked against a row-at-a-time reference (the
// Value-cell implementation they replaced, with COUNT DISTINCT keyed on
// typed values) over seeded random tables: every AggKind, keys of every
// type, nulls in keys and values, zero keys and empty input. Cells are
// compared typed and bit for bit (doubles by bit pattern), never through
// to_csv, whose %g would hide a low-bit difference. Table's column-wise
// copies (take, slice, append_table, the gather-append) are checked
// against per-cell copies the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sql/agg.hpp"
#include "sql/ops.hpp"

namespace oda::sql {
namespace {

// ---- reference: row-at-a-time GROUP BY over Value cells -------------------

bool needs_samples(AggKind k) { return k == AggKind::kP50 || k == AggKind::kP95 || k == AggKind::kP99; }

/// COUNT DISTINCT identity of a cell: its type and exact value.
std::string distinct_key(const Value& v) {
  std::string key(1, static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kInt64: key += std::to_string(v.as_int()); break;
    case DataType::kFloat64: key += std::to_string(std::bit_cast<std::uint64_t>(v.as_double())); break;
    case DataType::kString: key += v.as_string(); break;
    case DataType::kBool: key += v.as_bool() ? '1' : '0'; break;
    case DataType::kNull: break;
  }
  return key;
}

struct RefState {
  double sum = 0.0;
  double sumsq = 0.0;
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  Value first;
  Value last;
  std::vector<double> samples;
  std::unordered_set<std::string> distincts;

  void add(const Value& v, AggKind kind) {
    if (v.is_null()) return;
    if (kind == AggKind::kCountDistinct) {
      distincts.insert(distinct_key(v));
      ++count;
      return;
    }
    if (kind == AggKind::kFirst) {
      if (count == 0) first = v;
      ++count;
      return;
    }
    if (kind == AggKind::kLast) {
      last = v;
      ++count;
      return;
    }
    if (kind == AggKind::kCount) {
      ++count;
      return;
    }
    const double x = v.as_double();
    if (count == 0) {
      min = max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    sum += x;
    sumsq += x * x;
    ++count;
    if (needs_samples(kind)) samples.push_back(x);
  }

  Value result(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount: return Value(static_cast<std::int64_t>(count));
      case AggKind::kCountDistinct: return Value(static_cast<std::int64_t>(distincts.size()));
      case AggKind::kFirst: return first;
      case AggKind::kLast: return last;
      default: break;
    }
    if (count == 0) return Value::null();
    switch (kind) {
      case AggKind::kSum: return Value(sum);
      case AggKind::kMean: return Value(sum / static_cast<double>(count));
      case AggKind::kMin: return Value(min);
      case AggKind::kMax: return Value(max);
      case AggKind::kStd: {
        if (count < 2) return Value(0.0);
        const double n = static_cast<double>(count);
        const double var = std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
        return Value(std::sqrt(var));
      }
      case AggKind::kP50: return Value(common::exact_quantile(samples, 0.50));
      case AggKind::kP95: return Value(common::exact_quantile(samples, 0.95));
      case AggKind::kP99: return Value(common::exact_quantile(samples, 0.99));
      default: throw std::logic_error("unreachable");
    }
  }
};

std::string ref_output_name(const AggSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  if (spec.column.empty()) return agg_name(spec.kind);
  return std::string(agg_name(spec.kind)) + "_" + spec.column;
}

DataType ref_output_type(const Table& t, const AggSpec& spec) {
  switch (spec.kind) {
    case AggKind::kCount:
    case AggKind::kCountDistinct: return DataType::kInt64;
    case AggKind::kFirst:
    case AggKind::kLast: return t.schema().field(t.col_index(spec.column)).type;
    default: return DataType::kFloat64;
  }
}

Table ref_group_by(const Table& t, std::span<const std::string> keys, std::span<const AggSpec> aggs) {
  std::vector<std::size_t> key_cols;
  for (const auto& k : keys) key_cols.push_back(t.col_index(k));
  std::vector<std::size_t> agg_cols;
  for (const auto& a : aggs) {
    agg_cols.push_back(a.column.empty() && a.kind == AggKind::kCount ? Schema::npos : t.col_index(a.column));
  }
  struct Group {
    std::size_t exemplar_row;
    std::vector<RefState> states;
  };
  std::unordered_map<std::string, std::size_t> index;
  std::vector<Group> groups;
  std::string buf;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    encode_key(t, key_cols, i, buf);
    auto [it, inserted] = index.emplace(buf, groups.size());
    if (inserted) groups.push_back(Group{i, std::vector<RefState>(aggs.size())});
    Group& g = groups[it->second];
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const Value v = agg_cols[a] == Schema::npos ? Value(std::int64_t{1}) : t.column(agg_cols[a]).get(i);
      g.states[a].add(v, aggs[a].kind);
    }
  }
  Schema schema;
  for (std::size_t kc : key_cols) schema.add(t.schema().field(kc));
  for (const auto& a : aggs) schema.add({ref_output_name(a), ref_output_type(t, a)});
  Table out(schema);
  std::vector<Value> row(schema.size());
  for (const auto& g : groups) {
    std::size_t c = 0;
    for (std::size_t kc : key_cols) row[c++] = t.column(kc).get(g.exemplar_row);
    for (std::size_t a = 0; a < aggs.size(); ++a) row[c++] = g.states[a].result(aggs[a].kind);
    out.append_row(row);
  }
  return out;
}

Table ref_window_aggregate(const Table& t, const std::string& time_column, common::Duration window,
                           std::span<const std::string> keys, std::span<const AggSpec> aggs,
                           const std::string& window_col) {
  const std::size_t tc = t.col_index(time_column);
  Schema schema = t.schema();
  schema.add({window_col, DataType::kInt64});
  Table with_window(schema);
  std::vector<Value> row(schema.size());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) row[c] = t.column(c).get(r);
    const Column& time_col = t.column(tc);
    row.back() =
        time_col.is_null(r) ? Value::null() : Value(common::window_start(time_col.int_at(r), window));
    with_window.append_row(row);
  }
  std::vector<std::string> all_keys{window_col};
  all_keys.insert(all_keys.end(), keys.begin(), keys.end());
  return ref_group_by(with_window, all_keys, aggs);
}

Table ref_take(const Table& t, std::span<const std::size_t> rows) {
  Table out(t.schema());
  for (std::size_t r : rows) out.append_row(t.row(r));
  return out;
}

// ---- bit-exact comparison ---------------------------------------------------

::testing::AssertionResult same_cells(const Table& want, const Table& got) {
  if (!(want.schema() == got.schema())) {
    return ::testing::AssertionFailure() << "schema " << got.schema().to_string() << ", want "
                                         << want.schema().to_string();
  }
  if (want.num_rows() != got.num_rows()) {
    return ::testing::AssertionFailure() << got.num_rows() << " rows, want " << want.num_rows();
  }
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const Column& a = want.column(c);
    const Column& b = got.column(c);
    for (std::size_t r = 0; r < want.num_rows(); ++r) {
      bool same = a.is_null(r) == b.is_null(r);
      if (same && !a.is_null(r)) {
        switch (a.type()) {
          case DataType::kInt64: same = a.int_at(r) == b.int_at(r); break;
          case DataType::kFloat64:
            same = std::bit_cast<std::uint64_t>(a.double_at(r)) ==
                   std::bit_cast<std::uint64_t>(b.double_at(r));
            break;
          case DataType::kString: same = a.str_at(r) == b.str_at(r); break;
          case DataType::kBool: same = a.bool_at(r) == b.bool_at(r); break;
          case DataType::kNull: break;
        }
      }
      if (!same) {
        return ::testing::AssertionFailure() << "column " << want.schema().field(c).name << " row " << r
                                             << ": got " << b.get(r).to_string() << ", want "
                                             << a.get(r).to_string();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- random tables ------------------------------------------------------------

constexpr DataType kTypes[] = {DataType::kInt64, DataType::kFloat64, DataType::kString, DataType::kBool};

Value random_cell(common::Rng& rng, DataType type, double null_p) {
  if (type == DataType::kNull || rng.bernoulli(null_p)) return Value::null();
  switch (type) {
    case DataType::kInt64: {
      static constexpr std::int64_t kInts[] = {0, 1, -1, 7, 1 << 20, std::numeric_limits<std::int64_t>::max(),
                                               std::numeric_limits<std::int64_t>::min()};
      return rng.bernoulli(0.7) ? Value(rng.uniform_int(-3, 3))
                                : Value(kInts[rng.uniform_index(std::size(kInts))]);
    }
    case DataType::kFloat64: {
      // Few distinct values so they repeat as keys, including pairs that
      // print alike under %g and values whose bits differ but compare equal.
      static constexpr double kDoubles[] = {0.0, -0.0, 1.0000001, 1.0000002, -2.5, 1e300,
                                            std::numeric_limits<double>::infinity(),
                                            std::numeric_limits<double>::quiet_NaN()};
      return rng.bernoulli(0.5) ? Value(kDoubles[rng.uniform_index(std::size(kDoubles))])
                                : Value(rng.normal(0.0, 1e3));
    }
    case DataType::kString: {
      static const char* kStrings[] = {"",          "a",   "b", "node01", "gpu3.power_w",
                                       "x,y", "a much longer string value"};
      return Value(kStrings[rng.uniform_index(std::size(kStrings))]);
    }
    case DataType::kBool: return Value(rng.bernoulli(0.5));
    case DataType::kNull: break;
  }
  return Value::null();
}

/// A table with an int64 "time" column followed by 1-5 columns of random
/// types (rarely kNull); one int64 column may be named "window_start".
Table random_table(common::Rng& rng, std::size_t rows) {
  Schema schema;
  schema.add({"time", DataType::kInt64});
  const std::size_t extra = 1 + rng.uniform_index(5);
  for (std::size_t c = 0; c < extra; ++c) {
    const DataType type = rng.bernoulli(0.03) ? DataType::kNull : kTypes[rng.uniform_index(4)];
    const bool clash = type == DataType::kInt64 && rng.bernoulli(0.1);
    schema.add({clash ? "window_start" : "c" + std::to_string(c), type});
  }
  std::vector<double> null_p(schema.size());
  for (auto& p : null_p) p = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
  Table t(schema);
  std::vector<Value> row(schema.size());
  for (std::size_t r = 0; r < rows; ++r) {
    row[0] = rng.bernoulli(null_p[0]) ? Value::null() : Value(rng.uniform_int(-100, 100) * common::kSecond);
    for (std::size_t c = 1; c < schema.size(); ++c) {
      row[c] = random_cell(rng, schema.field(c).type, null_p[c]);
    }
    t.append_row(row);
  }
  return t;
}

std::vector<std::string> random_keys(common::Rng& rng, const Table& t) {
  std::vector<std::string> keys;
  const std::size_t n = rng.uniform_index(4);  // zero keys included
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(t.schema().field(rng.uniform_index(t.num_columns())).name);
  }
  return keys;
}

std::vector<AggSpec> random_aggs(common::Rng& rng, const Table& t) {
  constexpr AggKind kKinds[] = {AggKind::kSum,   AggKind::kMean,          AggKind::kMin,   AggKind::kMax,
                                AggKind::kCount, AggKind::kCountDistinct, AggKind::kFirst, AggKind::kLast,
                                AggKind::kStd,   AggKind::kP50,           AggKind::kP95,   AggKind::kP99};
  std::vector<AggSpec> aggs;
  const std::size_t n = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < n; ++i) {
    AggSpec spec;
    spec.kind = kKinds[rng.uniform_index(std::size(kKinds))];
    const bool numeric = spec.kind != AggKind::kCount && spec.kind != AggKind::kCountDistinct &&
                         spec.kind != AggKind::kFirst && spec.kind != AggKind::kLast;
    std::vector<std::string> candidates;
    for (const auto& f : t.schema().fields()) {
      if (!numeric || f.type != DataType::kString) candidates.push_back(f.name);
    }
    spec.column = candidates[rng.uniform_index(candidates.size())];
    if (spec.kind == AggKind::kCount && rng.bernoulli(0.3)) spec.column.clear();  // COUNT(*)
    if (rng.bernoulli(0.5)) spec.output_name = "out" + std::to_string(i);
    aggs.push_back(spec);
  }
  return aggs;
}

// ---- properties -----------------------------------------------------------------

TEST(SqlKernelsProperty, GroupByAndWindowAggregateMatchRowAtATimeReference) {
  constexpr common::Duration kWindows[] = {1, 7 * common::kSecond, 15 * common::kSecond, common::kMinute};
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    common::Rng rng(seed);
    const std::size_t rows = rng.bernoulli(0.05) ? 0 : rng.uniform_index(200);
    const Table t = random_table(rng, rows);
    const std::vector<std::string> keys = random_keys(rng, t);
    const std::vector<AggSpec> aggs = random_aggs(rng, t);
    EXPECT_TRUE(same_cells(ref_group_by(t, keys, aggs), group_by(t, keys, aggs))) << "seed " << seed;

    const common::Duration window = kWindows[rng.uniform_index(std::size(kWindows))];
    EXPECT_TRUE(same_cells(ref_window_aggregate(t, "time", window, keys, aggs, "window_start"),
                           window_aggregate(t, "time", window, keys, aggs, "window_start")))
        << "seed " << seed << " window " << window;
  }
}

TEST(SqlKernelsProperty, ColumnWiseCopiesMatchPerCellCopies) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    common::Rng rng(seed ^ 0x7a6b1eull);
    const Table a = random_table(rng, rng.uniform_index(60));
    Table b(a.schema());
    const std::size_t b_rows = rng.uniform_index(60);
    for (std::size_t r = 0; r < b_rows; ++r) {
      std::vector<Value> row;
      for (const auto& f : a.schema().fields()) row.push_back(random_cell(rng, f.type, 0.3));
      b.append_row(row);
    }

    // Indices into b: repeats, any order, possibly none.
    std::vector<std::size_t> idx;
    const std::size_t picks = b_rows == 0 ? 0 : rng.uniform_index(2 * b_rows);
    for (std::size_t i = 0; i < picks; ++i) idx.push_back(rng.uniform_index(b_rows));

    EXPECT_TRUE(same_cells(ref_take(b, idx), b.take(idx))) << "take, seed " << seed;

    std::vector<std::size_t> all_a(a.num_rows()), all_b(b.num_rows());
    for (std::size_t i = 0; i < all_a.size(); ++i) all_a[i] = i;
    for (std::size_t i = 0; i < all_b.size(); ++i) all_b[i] = i;
    Table appended = a;
    appended.append_table(b);
    Table want = ref_take(a, all_a);
    for (std::size_t r : all_b) want.append_row(b.row(r));
    EXPECT_TRUE(same_cells(want, appended)) << "append_table, seed " << seed;

    Table gathered = a;
    gathered.append_rows(b, idx);
    Table want_gathered = ref_take(a, all_a);
    for (std::size_t r : idx) want_gathered.append_row(b.row(r));
    EXPECT_TRUE(same_cells(want_gathered, gathered)) << "append_rows, seed " << seed;

    const std::size_t lo = rng.uniform_index(b_rows + 1);
    const std::size_t hi = lo + rng.uniform_index(b_rows + 2 - lo);  // may run past the end
    std::vector<std::size_t> range;
    for (std::size_t r = lo; r < std::min(hi, b_rows); ++r) range.push_back(r);
    EXPECT_TRUE(same_cells(ref_take(b, range), b.slice(lo, hi))) << "slice, seed " << seed;
  }
}

TEST(SqlKernelsProperty, CopiesRejectMismatchesAndBadIndices) {
  Table a{Schema{{"x", DataType::kInt64}}};
  a.append_row({Value(std::int64_t{1})});
  const Table other{Schema{{"x", DataType::kFloat64}}};
  EXPECT_THROW(a.append_table(other), std::invalid_argument);
  const std::vector<std::size_t> past_end{0, 1};
  EXPECT_THROW(a.take(past_end), std::out_of_range);
}

}  // namespace
}  // namespace oda::sql
