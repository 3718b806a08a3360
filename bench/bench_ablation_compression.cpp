// Ablation: the "column-oriented compressed file format, ensuring
// significant data compression and minimal I/O footprint" claim
// (Sec V-B). Measures compression ratio and encode/decode throughput of
// the OCEAN columnar format on real telemetry-shaped data, with each
// encoding layer toggled.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "storage/codecs.hpp"
#include "storage/columnar.hpp"

namespace {

std::size_t raw_row_size(const oda::sql::Table& t) {
  // A naive row-oriented binary layout: 8 bytes per numeric cell,
  // length-prefixed strings.
  std::size_t bytes = 0;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const auto& col = t.column(c);
    if (col.type() == oda::sql::DataType::kString) {
      for (std::size_t r = 0; r < t.num_rows(); ++r) bytes += 4 + col.str_at(r).size();
    } else {
      bytes += 8 * t.num_rows();
    }
  }
  return bytes;
}

}  // namespace

int main() {
  using namespace oda;
  bench::header("Ablation -- columnar compression on telemetry",
                "Sec V-B (Parquet role); lessons learned: 'compression ... made a huge "
                "difference'",
                "typed encodings + LZ give ~5-20x vs raw rows; dictionary carries the string "
                "column; delta carries timestamps");

  bench::StandardRig rig(0.01, 240.0, 0.25);
  std::printf("\ngenerating 3 facility-minutes of Bronze telemetry...\n");
  sql::Table bronze = rig.sys->sample_bronze(0, 3 * common::kMinute);
  const double raw = static_cast<double>(raw_row_size(bronze));
  std::printf("bronze: %zu rows x %zu cols, raw row-format size %s\n", bronze.num_rows(),
              bronze.num_columns(), common::format_bytes(raw).c_str());

  struct Config {
    const char* label;
    storage::WriteOptions opts;
  };
  const Config configs[] = {
      {"typed encodings only (no LZ)", {65536, false}},
      {"typed encodings + LZ pass", {65536, true}},
      {"small row groups (4k) + LZ", {4096, true}},
  };
  std::printf("\n%-32s %12s %8s %12s %12s\n", "configuration", "bytes", "ratio", "enc MB/s",
              "dec MB/s");
  for (const auto& cfg : configs) {
    common::Stopwatch sw;
    const auto blob = storage::write_columnar(bronze, cfg.opts);
    const double enc_s = sw.elapsed_seconds();
    sw.reset();
    const auto back = storage::read_columnar(blob);
    const double dec_s = sw.elapsed_seconds();
    if (back.num_rows() != bronze.num_rows()) {
      std::printf("ROUNDTRIP FAILURE in %s\n", cfg.label);
      return 1;
    }
    const double mb = raw / (1024.0 * 1024.0);
    std::printf("%-32s %12s %7.1fx %12.0f %12.0f\n", cfg.label,
                common::format_bytes(static_cast<double>(blob.size())).c_str(),
                raw / static_cast<double>(blob.size()), mb / enc_s, mb / dec_s);
  }

  bench::section("per-codec contribution (isolated on one column each)");
  {
    // Timestamps: sorted int64 -> delta shines.
    std::vector<std::int64_t> times;
    times.reserve(bronze.num_rows());
    for (std::size_t r = 0; r < bronze.num_rows(); ++r) times.push_back(bronze.column(0).int_at(r));
    const auto enc = storage::encode_int64_delta(times);
    std::printf("timestamps  (delta+zigzag+varint): %5.1fx  (%zu KB -> %zu KB)\n",
                8.0 * times.size() / static_cast<double>(enc.size()), 8 * times.size() / 1024,
                enc.size() / 1024);
  }
  {
    // Sensor labels: low-cardinality strings -> dictionary shines.
    const auto& labels = bronze.column("sensor");
    std::vector<std::string> vals;
    std::size_t raw_bytes = 0;
    vals.reserve(bronze.num_rows());
    for (std::size_t r = 0; r < bronze.num_rows(); ++r) {
      vals.push_back(labels.str_at(r));
      raw_bytes += 4 + vals.back().size();
    }
    const auto enc = storage::encode_strings_dict(vals);
    std::printf("sensor names            (dictionary): %5.1fx  (%zu KB -> %zu KB)\n",
                static_cast<double>(raw_bytes) / static_cast<double>(enc.size()), raw_bytes / 1024,
                enc.size() / 1024);
  }
  {
    // Values: noisy doubles -> byte-stream split collapses the near-constant
    // sign/exponent planes; mantissa noise stays near-incompressible.
    std::vector<double> vals;
    vals.reserve(bronze.num_rows());
    for (std::size_t r = 0; r < bronze.num_rows(); ++r)
      vals.push_back(bronze.column("value").double_at(r));
    const auto enc = storage::encode_float64_bss(vals);
    std::printf("sensor values (byte-stream split): %5.1fx  (%zu KB -> %zu KB)\n",
                8.0 * vals.size() / static_cast<double>(enc.size()), 8 * vals.size() / 1024,
                enc.size() / 1024);
  }
  return 0;
}
