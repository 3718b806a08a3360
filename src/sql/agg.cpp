#include "sql/agg.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"

namespace oda::sql {
namespace {

bool needs_samples(AggKind k) { return k == AggKind::kP50 || k == AggKind::kP95 || k == AggKind::kP99; }

std::string output_name(const AggSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  if (spec.column.empty()) return agg_name(spec.kind);
  return std::string(agg_name(spec.kind)) + "_" + spec.column;
}

/// A column the kernel reads, with the schema field that names it.
struct ColumnRef {
  const Column* column = nullptr;  ///< null for COUNT(*)
  Field field;
};

/// Name lookup over `t`'s columns, then (window_aggregate) one derived
/// column that is not part of `t`. Input columns win on a name clash, as
/// a by-name lookup over "t plus the derived column appended" would.
ColumnRef resolve(const Table& t, const std::string& name, const ColumnRef* derived) {
  if (derived != nullptr && derived->field.name == name && !t.schema().contains(name)) return *derived;
  const std::size_t c = t.col_index(name);  // throws when absent
  return {&t.column(c), t.schema().field(c)};
}

/// Open-addressing index from fixed-width tuples of 64-bit codes to dense
/// ids, assigned in first-seen order.
class TupleIndex {
 public:
  explicit TupleIndex(std::size_t width) : width_(width), slots_(16, kEmpty) {}

  /// Id of the `width`-word tuple at `key`, and whether it was new.
  std::pair<std::size_t, bool> insert(const std::uint64_t* key) {
    const std::uint64_t h = hash(key);
    std::size_t s = h & (slots_.size() - 1);
    for (;; s = (s + 1) & (slots_.size() - 1)) {
      const std::size_t id = slots_[s];
      if (id == kEmpty) break;
      if (hashes_[id] == h && std::equal(key, key + width_, keys_.data() + id * width_)) return {id, false};
    }
    const std::size_t id = hashes_.size();
    hashes_.push_back(h);
    keys_.insert(keys_.end(), key, key + width_);
    slots_[s] = id;
    if (2 * hashes_.size() > slots_.size()) grow();
    return {id, true};
  }

  std::size_t size() const { return hashes_.size(); }

 private:
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  std::uint64_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (std::size_t i = 0; i < width_; ++i) h = std::rotl((h ^ key[i]) * 0x9e3779b97f4a7c15ull, 29);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  void grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < hashes_.size(); ++id) {
      std::size_t s = hashes_[id] & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  std::size_t width_;
  std::vector<std::size_t> slots_;
  std::vector<std::uint64_t> hashes_;  ///< per id
  std::vector<std::uint64_t> keys_;    ///< per id, width_ words each
};

/// Writes one 64-bit code per row of `col` into out[r * stride]: the bit
/// pattern of int64/float64/bool cells, a per-call dictionary id for
/// strings, 0 for nulls (which callers tell apart by validity).
void code_column(const Column& col, std::uint64_t* out, std::size_t stride) {
  const std::size_t n = col.size();
  switch (col.type()) {
    case DataType::kInt64: {
      const auto v = col.ints();
      for (std::size_t r = 0; r < n; ++r) {
        out[r * stride] = col.is_null(r) ? 0 : static_cast<std::uint64_t>(v[r]);
      }
      break;
    }
    case DataType::kFloat64: {
      const auto v = col.doubles();
      for (std::size_t r = 0; r < n; ++r) {
        out[r * stride] = col.is_null(r) ? 0 : std::bit_cast<std::uint64_t>(v[r]);
      }
      break;
    }
    case DataType::kString: {
      std::unordered_map<std::string_view, std::uint64_t> dict;
      const auto& v = col.strings();
      for (std::size_t r = 0; r < n; ++r) {
        out[r * stride] = col.is_null(r) ? 0 : dict.try_emplace(v[r], dict.size()).first->second;
      }
      break;
    }
    case DataType::kBool:
      for (std::size_t r = 0; r < n; ++r) out[r * stride] = !col.is_null(r) && col.bool_at(r) ? 1 : 0;
      break;
    case DataType::kNull:
      for (std::size_t r = 0; r < n; ++r) out[r * stride] = 0;
      break;
  }
}

/// Calls f(row, x) for every non-null cell of a numeric (or bool) column.
template <typename F>
void for_each_number(const Column& col, F&& f) {
  const std::size_t n = col.size();
  switch (col.type()) {
    case DataType::kInt64: {
      const auto v = col.ints();
      for (std::size_t r = 0; r < n; ++r) {
        if (!col.is_null(r)) f(r, static_cast<double>(v[r]));
      }
      break;
    }
    case DataType::kFloat64: {
      const auto v = col.doubles();
      for (std::size_t r = 0; r < n; ++r) {
        if (!col.is_null(r)) f(r, v[r]);
      }
      break;
    }
    case DataType::kBool:
      for (std::size_t r = 0; r < n; ++r) {
        if (!col.is_null(r)) f(r, col.bool_at(r) ? 1.0 : 0.0);
      }
      break;
    case DataType::kString:
      if (col.null_count() < n) throw std::runtime_error("aggregate: numeric aggregate over a string column");
      break;
    case DataType::kNull:
      break;
  }
}

/// One aggregate over every group, accumulated in typed per-group arrays
/// (row order within a group, so float results match a row-at-a-time
/// fold bit for bit) and emitted as one typed column.
Column aggregate_column(const ColumnRef& in, const AggSpec& spec, std::span<const std::size_t> group_of,
                        std::size_t groups) {
  const std::size_t n = group_of.size();
  std::vector<std::int64_t> count(groups, 0);
  switch (spec.kind) {
    case AggKind::kCount: {
      for (std::size_t r = 0; r < n; ++r) {
        if (in.column == nullptr || !in.column->is_null(r)) ++count[group_of[r]];
      }
      Column out(DataType::kInt64);
      out.reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) out.append_int(count[g]);
      return out;
    }
    case AggKind::kCountDistinct: {
      std::vector<std::uint64_t> codes(n);
      code_column(*in.column, codes.data(), 1);
      TupleIndex seen(2);
      for (std::size_t r = 0; r < n; ++r) {
        if (in.column->is_null(r)) continue;
        const std::uint64_t key[2] = {group_of[r], codes[r]};
        if (seen.insert(key).second) ++count[group_of[r]];
      }
      Column out(DataType::kInt64);
      out.reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) out.append_int(count[g]);
      return out;
    }
    case AggKind::kFirst:
    case AggKind::kLast: {
      constexpr std::size_t kNone = static_cast<std::size_t>(-1);
      std::vector<std::size_t> pick(groups, kNone);
      const bool first = spec.kind == AggKind::kFirst;
      for (std::size_t r = 0; r < n; ++r) {
        if (in.column->is_null(r)) continue;
        std::size_t& p = pick[group_of[r]];
        if (!first || p == kNone) p = r;
      }
      Column out(in.column->type());
      out.reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        if (pick[g] == kNone) {
          out.append_null();
        } else {
          out.append_range(*in.column, pick[g], pick[g] + 1);
        }
      }
      return out;
    }
    default:
      break;
  }

  // Numeric aggregates: float64 output, null for groups with no values.
  std::vector<double> a(groups, 0.0), b(groups, 0.0);
  std::vector<std::vector<double>> samples(needs_samples(spec.kind) ? groups : 0);
  switch (spec.kind) {
    case AggKind::kSum:
    case AggKind::kMean:
      for_each_number(*in.column, [&](std::size_t r, double x) {
        const std::size_t g = group_of[r];
        a[g] += x;
        ++count[g];
      });
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      const bool is_min = spec.kind == AggKind::kMin;
      for_each_number(*in.column, [&](std::size_t r, double x) {
        const std::size_t g = group_of[r];
        a[g] = count[g]++ == 0 ? x : is_min ? std::min(a[g], x) : std::max(a[g], x);
      });
      break;
    }
    case AggKind::kStd:
      for_each_number(*in.column, [&](std::size_t r, double x) {
        const std::size_t g = group_of[r];
        a[g] += x;
        b[g] += x * x;
        ++count[g];
      });
      break;
    default:  // quantiles
      for_each_number(*in.column, [&](std::size_t r, double x) {
        const std::size_t g = group_of[r];
        samples[g].push_back(x);
        ++count[g];
      });
      break;
  }
  Column out(DataType::kFloat64);
  out.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    if (count[g] == 0) {
      out.append_null();
      continue;
    }
    const double c = static_cast<double>(count[g]);
    switch (spec.kind) {
      case AggKind::kMean: out.append_double(a[g] / c); break;
      case AggKind::kStd:
        out.append_double(count[g] < 2 ? 0.0 : std::sqrt(std::max(0.0, (b[g] - a[g] * a[g] / c) / (c - 1))));
        break;
      case AggKind::kP50: out.append_double(common::exact_quantile(std::move(samples[g]), 0.50)); break;
      case AggKind::kP95: out.append_double(common::exact_quantile(std::move(samples[g]), 0.95)); break;
      case AggKind::kP99: out.append_double(common::exact_quantile(std::move(samples[g]), 0.99)); break;
      default: out.append_double(a[g]); break;  // sum, min, max
    }
  }
  return out;
}

/// GROUP BY over `rows` rows: code each key column once, hash the tuple
/// of codes to a dense group id (first-seen order), then build the key
/// columns (gathered from each group's first row) and one column per
/// aggregate.
Table aggregate(std::size_t rows, std::span<const ColumnRef> keys, std::span<const ColumnRef> inputs,
                std::span<const AggSpec> aggs) {
  // Tuple layout: one code word per key, then (only if some key has nulls)
  // a bitmask of null keys so a null never equals a coded value.
  const std::size_t k = keys.size();
  const bool any_null = std::any_of(keys.begin(), keys.end(),
                                    [](const ColumnRef& c) { return c.column->null_count() > 0; });
  const std::size_t width = k + (any_null ? (k + 63) / 64 : 0);
  std::vector<std::uint64_t> tuples(rows * width, 0);
  for (std::size_t c = 0; c < k; ++c) {
    const Column& col = *keys[c].column;
    code_column(col, tuples.data() + c, width);
    if (!any_null) continue;
    for (std::size_t r = 0; r < rows; ++r) {
      if (col.is_null(r)) tuples[r * width + k + c / 64] |= std::uint64_t{1} << (c % 64);
    }
  }

  TupleIndex index(width);
  std::vector<std::size_t> group_of(rows);
  std::vector<std::size_t> first_row;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto [id, inserted] = index.insert(tuples.data() + r * width);
    if (inserted) first_row.push_back(r);
    group_of[r] = id;
  }
  const std::size_t groups = first_row.size();

  Schema schema;
  std::vector<Column> columns;
  columns.reserve(k + aggs.size());
  for (const auto& key : keys) {
    schema.add(key.field);
    columns.emplace_back(key.field.type);
    columns.back().append_rows(*key.column, first_row);
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    columns.push_back(aggregate_column(inputs[a], aggs[a], group_of, groups));
    schema.add({output_name(aggs[a]), columns.back().type()});
  }
  return Table(std::move(schema), std::move(columns));
}

Table aggregate_named(const Table& t, const ColumnRef* derived, std::span<const std::string> key_names,
                      std::span<const AggSpec> aggs) {
  std::vector<ColumnRef> keys;
  keys.reserve(key_names.size() + 1);
  if (derived != nullptr) keys.push_back(*derived);
  for (const auto& name : key_names) keys.push_back(resolve(t, name, derived));
  std::vector<ColumnRef> inputs;
  inputs.reserve(aggs.size());
  for (const auto& a : aggs) {
    inputs.push_back(a.column.empty() && a.kind == AggKind::kCount ? ColumnRef{}
                                                                   : resolve(t, a.column, derived));
  }
  return aggregate(t.num_rows(), keys, inputs, aggs);
}

}  // namespace

const char* agg_name(AggKind k) {
  switch (k) {
    case AggKind::kSum: return "sum";
    case AggKind::kMean: return "mean";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kCount: return "count";
    case AggKind::kCountDistinct: return "count_distinct";
    case AggKind::kFirst: return "first";
    case AggKind::kLast: return "last";
    case AggKind::kStd: return "std";
    case AggKind::kP50: return "p50";
    case AggKind::kP95: return "p95";
    case AggKind::kP99: return "p99";
  }
  return "?";
}

Table group_by(const Table& t, std::span<const std::string> keys, std::span<const AggSpec> aggs) {
  return aggregate_named(t, nullptr, keys, aggs);
}

Table group_by(const Table& t, std::initializer_list<std::string> keys, std::initializer_list<AggSpec> aggs) {
  return group_by(t, std::span<const std::string>(keys.begin(), keys.size()),
                  std::span<const AggSpec>(aggs.begin(), aggs.size()));
}

Table window_aggregate(const Table& t, const std::string& time_column, common::Duration window,
                       std::span<const std::string> keys, std::span<const AggSpec> aggs,
                       const std::string& window_col) {
  // The window-start column is the only thing derived; the kernel reads
  // every other column straight from `t`.
  const Column& times = t.column(time_column);
  if (times.type() != DataType::kInt64) {
    throw std::invalid_argument("window_aggregate: time column must be int64");
  }
  Column starts(DataType::kInt64);
  starts.reserve(t.num_rows());
  const auto ts = times.ints();
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (times.is_null(r)) {
      starts.append_null();
    } else {
      starts.append_int(common::window_start(ts[r], window));
    }
  }
  const ColumnRef derived{&starts, Field{window_col, DataType::kInt64}};
  // The window key comes first; a clash with an input column resolves to
  // the input column, like every other name.
  const ColumnRef window_key = resolve(t, window_col, &derived);
  return aggregate_named(t, &window_key, keys, aggs);
}

Table pivot_wider(const Table& t, std::span<const std::string> index_cols, const std::string& names_from,
                  const std::string& values_from) {
  std::vector<std::size_t> idx_cols;
  idx_cols.reserve(index_cols.size());
  for (const auto& c : index_cols) idx_cols.push_back(t.col_index(c));
  const std::size_t name_col = t.col_index(names_from);
  const std::size_t value_col = t.col_index(values_from);
  if (t.column(name_col).type() != DataType::kString) {
    throw std::invalid_argument("pivot_wider: names_from must be a string column");
  }

  // Stable output schema: sorted distinct names.
  std::vector<std::string> names;
  {
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < t.num_rows(); ++i) {
      if (t.column(name_col).is_null(i)) continue;
      const std::string& n = t.column(name_col).str_at(i);
      if (seen.insert(n).second) names.push_back(n);
    }
    std::sort(names.begin(), names.end());
  }
  std::unordered_map<std::string, std::size_t> name_index;
  for (std::size_t i = 0; i < names.size(); ++i) name_index[names[i]] = i;

  struct Cell {
    double sum = 0.0;
    std::size_t count = 0;
  };
  struct PivotRow {
    std::size_t exemplar_row;
    std::vector<Cell> cells;
  };
  std::unordered_map<std::string, std::size_t> row_index;
  std::vector<PivotRow> rows;
  std::string buf;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    encode_key(t, idx_cols, i, buf);
    auto [it, inserted] = row_index.emplace(buf, rows.size());
    if (inserted) rows.push_back(PivotRow{i, std::vector<Cell>(names.size())});
    if (t.column(name_col).is_null(i) || t.column(value_col).is_null(i)) continue;
    Cell& cell = rows[it->second].cells[name_index.at(t.column(name_col).str_at(i))];
    cell.sum += t.column(value_col).double_at(i);
    cell.count += 1;
  }

  Schema schema;
  for (std::size_t k = 0; k < index_cols.size(); ++k) schema.add(t.schema().field(idx_cols[k]));
  for (const auto& n : names) schema.add({n, DataType::kFloat64});

  Table out(schema);
  out.reserve(rows.size());
  std::vector<Value> row(schema.size());
  for (const auto& pr : rows) {
    std::size_t c = 0;
    for (std::size_t ic : idx_cols) row[c++] = t.column(ic).get(pr.exemplar_row);
    for (const auto& cell : pr.cells) {
      row[c++] = cell.count ? Value(cell.sum / static_cast<double>(cell.count)) : Value::null();
    }
    out.append_row(row);
  }
  return out;
}

Table pivot_wider(const Table& t, std::initializer_list<std::string> index_cols, const std::string& names_from,
                  const std::string& values_from) {
  return pivot_wider(t, std::span<const std::string>(index_cols.begin(), index_cols.size()), names_from,
                     values_from);
}

Table pivot_longer(const Table& t, std::span<const std::string> id_cols, const std::string& name_col,
                   const std::string& value_col) {
  std::vector<std::size_t> ids;
  ids.reserve(id_cols.size());
  for (const auto& c : id_cols) ids.push_back(t.col_index(c));

  std::vector<std::size_t> melt;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    if (std::find(ids.begin(), ids.end(), c) != ids.end()) continue;
    const DataType ty = t.column(c).type();
    if (ty == DataType::kFloat64 || ty == DataType::kInt64) melt.push_back(c);
  }

  Schema schema;
  for (std::size_t i : ids) schema.add(t.schema().field(i));
  schema.add({name_col, DataType::kString});
  schema.add({value_col, DataType::kFloat64});

  Table out(schema);
  out.reserve(t.num_rows() * melt.size());
  std::vector<Value> row(schema.size());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t m : melt) {
      std::size_t c = 0;
      for (std::size_t i : ids) row[c++] = t.column(i).get(r);
      row[c++] = Value(t.schema().field(m).name);
      row[c++] = t.column(m).is_null(r) ? Value::null() : Value(t.column(m).double_at(r));
      out.append_row(row);
    }
  }
  return out;
}

}  // namespace oda::sql
