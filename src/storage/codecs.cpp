#include "storage/codecs.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"

namespace oda::storage {

using common::ByteReader;
using common::ByteWriter;

namespace {
// Decoders must stay robust to truncated or corrupted input: fail with an
// exception, never crash, over-read or allocate absurdly. Where every
// encoded element costs at least one byte the declared count is bounded
// by the bytes actually present; expansion codecs (RLE, LZ, BSS planes)
// get an absolute plausibility cap instead, far above anything the
// encoders in this repo produce.
constexpr std::uint64_t kMaxExpandedBytes = 1ull << 28;  // 256 MiB

void check_count(std::uint64_t n, std::size_t remaining, const char* codec) {
  if (n > remaining) throw std::runtime_error(std::string(codec) + ": count exceeds input size");
}
}  // namespace

std::vector<std::uint8_t> encode_int64_delta(std::span<const std::int64_t> values) {
  ByteWriter w;
  w.varint(values.size());
  // Deltas wrap in uint64_t: neighbours more than INT64_MAX apart would
  // overflow a signed subtraction (UB), and the wrapped delta round-trips
  // through svarint and the decoder's wrapping sum.
  std::uint64_t prev = 0;
  for (std::int64_t v : values) {
    w.svarint(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) - prev));
    prev = static_cast<std::uint64_t>(v);
  }
  return w.take();
}

std::vector<std::int64_t> decode_int64_delta(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t n = r.varint();
  check_count(n, r.remaining(), "int64-delta");  // each svarint is >= 1 byte
  std::vector<std::int64_t> out;
  out.reserve(n);
  std::uint64_t prev = 0;  // wraps like the encoder's deltas
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(r.svarint());
    out.push_back(static_cast<std::int64_t>(prev));
  }
  return out;
}

std::vector<std::uint8_t> encode_float64_bss(std::span<const double> values) {
  ByteWriter w;
  w.varint(values.size());
  std::vector<std::uint8_t> plane(values.size());
  for (int p = 0; p < 8; ++p) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &values[i], sizeof(bits));
      plane[i] = static_cast<std::uint8_t>(bits >> (8 * p));
    }
    const auto rle = rle_encode(plane);
    // RLE can expand pure-noise planes; store whichever is smaller.
    if (rle.size() < plane.size()) {
      w.u8(1);
      w.varint(rle.size());
      w.raw(rle.data(), rle.size());
    } else {
      w.u8(0);
      w.raw(plane.data(), plane.size());
    }
  }
  return w.take();
}

std::vector<double> decode_float64_bss(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t n = r.varint();
  // RLE planes can legitimately compress far below n bytes, so the count
  // is not bounded by the input size; cap the allocation instead.
  if (n * sizeof(double) > kMaxExpandedBytes || n > SIZE_MAX / sizeof(double)) {
    throw std::runtime_error("bss: implausible element count");
  }
  std::vector<std::uint64_t> bits(n, 0);
  for (int p = 0; p < 8; ++p) {
    const std::uint8_t is_rle = r.u8();
    std::vector<std::uint8_t> plane_storage;
    std::span<const std::uint8_t> plane;
    if (is_rle) {
      const std::uint64_t len = r.varint();
      plane_storage = rle_decode(r.raw(len));
      plane = plane_storage;
    } else {
      plane = r.raw(n);
    }
    if (plane.size() != n) throw std::runtime_error("bss: plane length mismatch");
    for (std::uint64_t i = 0; i < n; ++i) {
      bits[i] |= static_cast<std::uint64_t>(plane[i]) << (8 * p);
    }
  }
  std::vector<double> out(n);
  if (n) std::memcpy(out.data(), bits.data(), n * sizeof(double));
  return out;
}

std::vector<std::uint8_t> encode_strings_dict(const std::vector<std::string>& values) {
  // Build dictionary in first-seen order.
  std::unordered_map<std::string, std::uint64_t> dict;
  std::vector<const std::string*> entries;
  std::vector<std::uint64_t> indexes;
  indexes.reserve(values.size());
  for (const auto& s : values) {
    auto [it, inserted] = dict.try_emplace(s, entries.size());
    if (inserted) entries.push_back(&it->first);
    indexes.push_back(it->second);
  }
  ByteWriter w;
  w.varint(entries.size());
  for (const auto* e : entries) w.str(*e);
  w.varint(indexes.size());
  for (std::uint64_t i : indexes) w.varint(i);
  return w.take();
}

std::vector<std::string> decode_strings_dict(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t nd = r.varint();
  check_count(nd, r.remaining(), "dict codec");  // each entry is >= 1 length byte
  std::vector<std::string> dict;
  dict.reserve(nd);
  for (std::uint64_t i = 0; i < nd; ++i) dict.push_back(r.str());
  const std::uint64_t n = r.varint();
  check_count(n, r.remaining(), "dict codec");  // each index is >= 1 byte
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t idx = r.varint();
    if (idx >= dict.size()) throw std::runtime_error("dict codec: index out of range");
    out.push_back(dict[idx]);
  }
  return out;
}

std::vector<std::uint8_t> encode_bools(std::span<const std::uint8_t> values) {
  ByteWriter w;
  w.varint(values.size());
  std::uint8_t acc = 0;
  int nbits = 0;
  for (std::uint8_t v : values) {
    acc |= static_cast<std::uint8_t>((v ? 1 : 0) << nbits);
    if (++nbits == 8) {
      w.u8(acc);
      acc = 0;
      nbits = 0;
    }
  }
  if (nbits) w.u8(acc);
  return w.take();
}

std::vector<std::uint8_t> decode_bools(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t n = r.varint();
  check_count((n + 7) / 8, r.remaining(), "bools codec");
  std::vector<std::uint8_t> out;
  out.reserve(n);
  std::uint8_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 8 == 0) acc = r.u8();
    out.push_back((acc >> (i % 8)) & 1);
  }
  return out;
}

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
  ByteWriter w;
  w.varint(data.size());
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint8_t v = data[i];
    std::size_t run = 1;
    while (i + run < data.size() && data[i + run] == v) ++run;
    w.u8(v);
    w.varint(run);
    i += run;
  }
  return w.take();
}

std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t n = r.varint();
  if (n > kMaxExpandedBytes) throw std::runtime_error("rle: implausible length");
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::uint8_t v = r.u8();
    const std::uint64_t run = r.varint();
    // Bound before inserting: a corrupt run count must not drive a
    // multi-gigabyte allocation on its way to the length check below.
    if (run == 0 || run > n - out.size()) throw std::runtime_error("rle: run overflows length");
    out.insert(out.end(), run, v);
  }
  if (out.size() != n) throw std::runtime_error("rle: length mismatch");
  return out;
}

namespace {
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 255 + kMinMatch;
constexpr std::size_t kHashSize = 1 << 15;

std::uint32_t lz_hash(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - 15);
}
}  // namespace

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> data) {
  // Token stream: flag byte precedes groups of 8 tokens; bit set =>
  // (u16 distance, u8 length-kMinMatch) match, clear => literal byte.
  ByteWriter w;
  w.varint(data.size());
  std::vector<std::int64_t> head(kHashSize, -1);

  std::vector<std::uint8_t> tokens;
  tokens.reserve(data.size());
  std::uint8_t flags = 0;
  int nflag = 0;
  std::size_t flag_pos = 0;
  auto begin_group = [&] {
    flag_pos = tokens.size();
    tokens.push_back(0);
    flags = 0;
    nflag = 0;
  };
  auto end_token = [&](bool is_match) {
    if (is_match) flags |= static_cast<std::uint8_t>(1 << nflag);
    if (++nflag == 8) {
      tokens[flag_pos] = flags;
      begin_group();
    }
  };
  begin_group();

  std::size_t i = 0;
  while (i < data.size()) {
    std::size_t best_len = 0, best_dist = 0;
    if (i + kMinMatch <= data.size()) {
      const std::uint32_t h = lz_hash(&data[i]);
      const std::int64_t cand = head[h];
      if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow) {
        const std::size_t dist = i - static_cast<std::size_t>(cand);
        std::size_t len = 0;
        const std::size_t maxl = std::min(kMaxMatch, data.size() - i);
        while (len < maxl && data[cand + len] == data[i + len]) ++len;
        if (len >= kMinMatch) {
          best_len = len;
          best_dist = dist;
        }
      }
      head[h] = static_cast<std::int64_t>(i);
    }
    if (best_len >= kMinMatch) {
      tokens.push_back(static_cast<std::uint8_t>(best_dist & 0xff));
      tokens.push_back(static_cast<std::uint8_t>((best_dist >> 8) & 0xff));
      tokens.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      end_token(true);
      // Insert hashes inside the match so later data can reference it.
      const std::size_t stop = std::min(i + best_len, data.size() - kMinMatch);
      for (std::size_t j = i + 1; j < stop; ++j) head[lz_hash(&data[j])] = static_cast<std::int64_t>(j);
      i += best_len;
    } else {
      tokens.push_back(data[i]);
      end_token(false);
      ++i;
    }
  }
  tokens[flag_pos] = flags;
  w.raw(tokens.data(), tokens.size());
  return w.take();
}

std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint64_t n = r.varint();
  // A match token (<= 4 bytes incl. flag share) emits at most 259 bytes,
  // so legitimate output is bounded by a small multiple of the input.
  if (n > kMaxExpandedBytes || n / 260 > r.remaining()) {
    throw std::runtime_error("lz: implausible length");
  }
  std::vector<std::uint8_t> out;
  out.reserve(n);
  std::uint8_t flags = 0;
  int nflag = 8;  // force a flag read first
  while (out.size() < n) {
    if (nflag == 8) {
      flags = r.u8();
      nflag = 0;
    }
    const bool is_match = (flags >> nflag) & 1;
    ++nflag;
    if (is_match) {
      const std::size_t dist = r.u8() | (static_cast<std::size_t>(r.u8()) << 8);
      const std::size_t len = static_cast<std::size_t>(r.u8()) + kMinMatch;
      if (dist == 0 || dist > out.size()) throw std::runtime_error("lz: bad distance");
      for (std::size_t k = 0; k < len; ++k) out.push_back(out[out.size() - dist]);
    } else {
      out.push_back(r.u8());
    }
  }
  if (out.size() != n) throw std::runtime_error("lz: length mismatch");
  return out;
}

}  // namespace oda::storage
