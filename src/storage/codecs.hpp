// Column encodings for the OCEAN columnar format.
//
// The paper leans on "column-oriented compressed file format, ensuring
// significant data compression and minimal I/O footprint" (Sec V-B).
// These codecs reproduce the economics Parquet gets on telemetry:
//   - int64: delta + zigzag + varint (timestamps, ids, counters)
//   - float64: byte-stream split + RLE per byte plane (sensor values)
//   - string: dictionary + RLE-compressed indexes (low-cardinality names)
//   - bytes: LZSS-style general pass for everything else
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace oda::storage {

// --- integer / float / string primitive codecs -------------------------

std::vector<std::uint8_t> encode_int64_delta(std::span<const std::int64_t> values);
std::vector<std::int64_t> decode_int64_delta(std::span<const std::uint8_t> data);

/// Byte-stream split (Parquet BYTE_STREAM_SPLIT): transpose doubles into
/// eight byte planes and RLE each. Sign/exponent planes of same-magnitude
/// sensor readings are near-constant, so they collapse; mantissa noise
/// stays ~incompressible but never *expands*. Preferred for float columns.
std::vector<std::uint8_t> encode_float64_bss(std::span<const double> values);
std::vector<double> decode_float64_bss(std::span<const std::uint8_t> data);

std::vector<std::uint8_t> encode_strings_dict(const std::vector<std::string>& values);
std::vector<std::string> decode_strings_dict(std::span<const std::uint8_t> data);

std::vector<std::uint8_t> encode_bools(std::span<const std::uint8_t> values);
std::vector<std::uint8_t> decode_bools(std::span<const std::uint8_t> data);

/// Run-length encode a byte sequence of (value, count) runs; used for
/// validity bitmaps and dictionary indexes.
std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data);
std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data);

// --- general byte-stream compressor -------------------------------------

/// LZSS with a 64Ki window and hash-chain matching. Not zlib, but the
/// same family; gets telemetry-shaped data within similar ratios.
std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> data);
std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> data);

}  // namespace oda::storage
