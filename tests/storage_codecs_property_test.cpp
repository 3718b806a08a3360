// Property/fuzz tests for the OCEAN column codecs: random round-trips
// must be lossless, and truncated or corrupted input must fail with an
// exception — never crash, over-read, or allocate absurd amounts. Run
// under -DODA_SANITIZE=address / undefined for the full payoff.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "storage/codecs.hpp"
#include "storage/tsdb.hpp"

namespace oda::storage {
namespace {

using common::Rng;

// --- random input generators ----------------------------------------------

std::vector<std::int64_t> random_ints(Rng& rng) {
  const std::size_t n = rng.uniform_index(400);
  std::vector<std::int64_t> v;
  v.reserve(n);
  std::int64_t walk = rng.uniform_int(-1000, 1000);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_index(4)) {
      case 0: walk += rng.uniform_int(-5, 5); v.push_back(walk); break;      // smooth walk
      case 1: v.push_back(static_cast<std::int64_t>(rng.next())); break;     // noise
      case 2: v.push_back(std::numeric_limits<std::int64_t>::min()); break;  // extremes
      default: v.push_back(std::numeric_limits<std::int64_t>::max()); break;
    }
  }
  return v;
}

std::vector<double> random_doubles(Rng& rng) {
  const std::size_t n = rng.uniform_index(400);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_index(6)) {
      case 0: v.push_back(rng.normal(300.0, 5.0)); break;  // sensor-shaped
      case 1: v.push_back(0.0); break;
      case 2: v.push_back(-0.0); break;
      case 3: v.push_back(std::numeric_limits<double>::infinity()); break;
      case 4: v.push_back(std::numeric_limits<double>::quiet_NaN()); break;
      default: {  // arbitrary bit pattern
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        v.push_back(d);
      }
    }
  }
  return v;
}

std::vector<std::string> random_strings(Rng& rng) {
  const std::size_t n = rng.uniform_index(200);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s;
    const std::size_t len = rng.uniform_index(20);  // includes empty
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_index(256)));  // full byte range
    }
    // Low cardinality half the time (the dictionary's sweet spot).
    if (rng.bernoulli(0.5) && !v.empty()) {
      v.push_back(v[rng.uniform_index(v.size())]);
    } else {
      v.push_back(std::move(s));
    }
  }
  return v;
}

std::vector<std::uint8_t> random_bytes(Rng& rng) {
  const std::size_t n = rng.uniform_index(600);
  std::vector<std::uint8_t> v;
  v.reserve(n);
  std::uint8_t run_val = 0;
  std::size_t run_left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (run_left == 0 && rng.bernoulli(0.3)) {  // inject compressible runs
      run_val = static_cast<std::uint8_t>(rng.uniform_index(256));
      run_left = rng.uniform_index(60);
    }
    if (run_left > 0) {
      v.push_back(run_val);
      --run_left;
    } else {
      v.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
    }
  }
  return v;
}

// Bitwise double comparison: NaN payloads must survive the round trip.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << "index " << i;
  }
}

// --- round-trip properties -------------------------------------------------

constexpr int kRounds = 200;

TEST(CodecsPropertyTest, Int64DeltaRoundTrips) {
  Rng rng(0x1111);
  for (int it = 0; it < kRounds; ++it) {
    const auto v = random_ints(rng);
    EXPECT_EQ(decode_int64_delta(encode_int64_delta(v)), v);
  }
}

TEST(CodecsPropertyTest, Float64BssRoundTrips) {
  Rng rng(0x3333);
  for (int it = 0; it < kRounds; ++it) {
    const auto v = random_doubles(rng);
    expect_bits_equal(decode_float64_bss(encode_float64_bss(v)), v);
  }
}

TEST(CodecsPropertyTest, StringsDictRoundTrips) {
  Rng rng(0x4444);
  for (int it = 0; it < kRounds; ++it) {
    const auto v = random_strings(rng);
    EXPECT_EQ(decode_strings_dict(encode_strings_dict(v)), v);
  }
}

TEST(CodecsPropertyTest, BoolsRoundTrip) {
  Rng rng(0x5555);
  for (int it = 0; it < kRounds; ++it) {
    std::vector<std::uint8_t> v(rng.uniform_index(500));
    for (auto& b : v) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(decode_bools(encode_bools(v)), v);
  }
}

TEST(CodecsPropertyTest, RleRoundTrips) {
  Rng rng(0x6666);
  for (int it = 0; it < kRounds; ++it) {
    const auto v = random_bytes(rng);
    EXPECT_EQ(rle_decode(rle_encode(v)), v);
  }
}

TEST(CodecsPropertyTest, LzRoundTrips) {
  Rng rng(0x7777);
  for (int it = 0; it < kRounds; ++it) {
    const auto v = random_bytes(rng);
    EXPECT_EQ(lz_decompress(lz_compress(v)), v);
  }
}

// --- hostile input: truncation and corruption ------------------------------

enum class Codec { kInt64, kBss, kDict, kBools, kRle, kLz };

// Decode then re-encode: a canonical byte representation of the decoded
// values, so decodes of different inputs can be compared without a
// per-codec value type.
std::vector<std::uint8_t> decode_reencode(Codec c, std::span<const std::uint8_t> data) {
  switch (c) {
    case Codec::kInt64: return encode_int64_delta(decode_int64_delta(data));
    case Codec::kBss: return encode_float64_bss(decode_float64_bss(data));
    case Codec::kDict: return encode_strings_dict(decode_strings_dict(data));
    case Codec::kBools: return encode_bools(decode_bools(data));
    case Codec::kRle: return rle_encode(rle_decode(data));
    case Codec::kLz: return lz_compress(lz_decompress(data));
  }
  return {};
}

void decode_any(Codec c, std::span<const std::uint8_t> data) { decode_reencode(c, data); }

std::vector<std::uint8_t> encode_sample(Codec c, Rng& rng) {
  switch (c) {
    case Codec::kInt64: return encode_int64_delta(random_ints(rng));
    case Codec::kBss: return encode_float64_bss(random_doubles(rng));
    case Codec::kDict: return encode_strings_dict(random_strings(rng));
    case Codec::kBools: {
      std::vector<std::uint8_t> v(rng.uniform_index(300));
      for (auto& b : v) b = rng.bernoulli(0.5) ? 1 : 0;
      return encode_bools(v);
    }
    case Codec::kRle: return rle_encode(random_bytes(rng));
    case Codec::kLz: return lz_compress(random_bytes(rng));
  }
  return {};
}

const Codec kAllCodecs[] = {Codec::kInt64, Codec::kBss, Codec::kDict,
                            Codec::kBools, Codec::kRle, Codec::kLz};

TEST(CodecsHostileInputTest, TruncationThrowsOrLosesNothing) {
  // A strict prefix must either throw (bytes the declared counts require
  // are missing) or decode to exactly the full buffer's values — the
  // only non-throwing case is dropping bytes the decoder never needed
  // (e.g. LZ's trailing flag byte). Silently returning *different* data
  // would be corruption.
  Rng rng(0x8888);
  for (Codec c : kAllCodecs) {
    for (int it = 0; it < 40; ++it) {
      const auto full = encode_sample(c, rng);
      if (full.size() < 2) continue;
      const auto full_decoded = decode_reencode(c, full);
      for (std::size_t len = 0; len < full.size(); ++len) {
        std::span<const std::uint8_t> cut(full.data(), len);
        try {
          const auto cut_decoded = decode_reencode(c, cut);
          EXPECT_EQ(cut_decoded, full_decoded)
              << "codec " << static_cast<int>(c) << " silently mis-decoded a " << len << "/"
              << full.size() << "-byte truncation";
        } catch (const std::exception&) {
          // Expected for almost every prefix.
        }
      }
    }
  }
}

TEST(CodecsHostileInputTest, RandomCorruptionNeverCrashes) {
  Rng rng(0x9999);
  for (Codec c : kAllCodecs) {
    for (int it = 0; it < 150; ++it) {
      auto data = encode_sample(c, rng);
      if (data.empty()) continue;
      const std::size_t flips = 1 + rng.uniform_index(8);
      for (std::size_t f = 0; f < flips; ++f) {
        data[rng.uniform_index(data.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
      }
      // Corruption may still decode to *something* (payload bytes flipped)
      // or throw — both fine. Crashing, hanging or OOMing is not.
      try {
        decode_any(c, data);
      } catch (const std::exception&) {
      }
    }
  }
}

TEST(CodecsHostileInputTest, PureGarbageNeverCrashes) {
  Rng rng(0xaaaa);
  for (Codec c : kAllCodecs) {
    for (int it = 0; it < 200; ++it) {
      std::vector<std::uint8_t> junk(rng.uniform_index(300));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_index(256));
      try {
        decode_any(c, junk);
      } catch (const std::exception&) {
      }
    }
  }
}

TEST(CodecsHostileInputTest, HugeDeclaredCountsAreRejectedCheaply) {
  // A forged header declaring 2^60 elements must throw before allocating.
  common::ByteWriter w;
  w.varint(1ull << 60);
  w.u8(0);
  const auto forged = w.take();
  EXPECT_THROW(decode_int64_delta(forged), std::exception);
  EXPECT_THROW(decode_float64_bss(forged), std::exception);
  EXPECT_THROW(decode_strings_dict(forged), std::exception);
  EXPECT_THROW(decode_bools(forged), std::exception);
  EXPECT_THROW(rle_decode(forged), std::exception);
  EXPECT_THROW(lz_decompress(forged), std::exception);
}

// --- tsdb time-bucket arithmetic (satellite of the serving PR) -------------
// window_start and TsQuery bucket math must be total over the whole
// INT64 timeline: saturate, never wrap. Run under -DODA_SANITIZE=undefined
// for the signed-overflow payoff.

TEST(TsdbBucketPropertyTest, WindowStartFloorsWithoutWrapping) {
  Rng rng(0x77d1);
  const std::int64_t interesting_t[] = {
      INT64_MIN, INT64_MIN + 1, INT64_MIN + 2, -1, 0, 1, INT64_MAX - 1, INT64_MAX};
  const std::int64_t interesting_b[] = {1, 2, 3, 7, common::kSecond, common::kMinute,
                                        INT64_MAX / 2, INT64_MAX};
  auto check = [](std::int64_t t, std::int64_t bucket) {
    const std::int64_t w = common::window_start(t, bucket);
    // Floor: never above t.
    ASSERT_LE(w, t) << "t=" << t << " bucket=" << bucket;
    // Within one bucket of t (computed in uint64 — t - w can exceed
    // INT64_MAX when w saturated) unless saturation clipped the floor.
    const std::uint64_t dist =
        static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(w);
    if (w != INT64_MIN) {
      ASSERT_LT(dist, static_cast<std::uint64_t>(bucket)) << "t=" << t << " bucket=" << bucket;
      ASSERT_EQ(w % bucket, 0) << "t=" << t << " bucket=" << bucket;
    } else {
      ASSERT_LE(dist, static_cast<std::uint64_t>(bucket)) << "t=" << t << " bucket=" << bucket;
    }
  };
  for (const auto t : interesting_t) {
    for (const auto b : interesting_b) check(t, b);
  }
  for (int it = 0; it < 20000; ++it) {
    const auto t = static_cast<std::int64_t>(rng.next());
    const std::int64_t b = 1 + static_cast<std::int64_t>(
                                   rng.uniform_index(static_cast<std::uint64_t>(INT64_MAX)));
    check(t, b);
  }
}

TEST(TsdbBucketPropertyTest, ExtremeRangeQueriesStayWellDefined) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  const std::int64_t times[] = {INT64_MIN + 2, INT64_MIN / 2, -common::kHour, 0,
                                common::kHour,  INT64_MAX / 2, INT64_MAX - 2};
  for (const auto t : times) db.append(key, t, 1.0);

  Rng rng(0x5eed);
  const std::int64_t edges[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX};
  for (int it = 0; it < 2000; ++it) {
    TsQuery q;
    q.metric = "m";
    q.t0 = (it % 3 == 0) ? edges[rng.uniform_index(7)] : static_cast<std::int64_t>(rng.next());
    q.t1 = (it % 3 == 1) ? edges[rng.uniform_index(7)] : static_cast<std::int64_t>(rng.next());
    q.step = (it % 2 == 0)
                 ? static_cast<std::int64_t>(rng.uniform_index(static_cast<std::uint64_t>(INT64_MAX)))
                 : INT64_MAX;
    q.agg = sql::AggKind::kCount;
    const auto out = db.query(q);  // must not wrap, crash, or hang
    // Every emitted bucket stamp is a valid floor: <= some in-range point.
    for (std::size_t r = 0; r < out.num_rows(); ++r) {
      ASSERT_LT(out.column("time").int_at(r), q.t1);
    }
  }
  // The headline case: open-ended range, nonzero step.
  TsQuery open;
  open.metric = "m";
  open.t0 = INT64_MIN;
  open.t1 = INT64_MAX;
  open.step = common::kMinute;
  open.agg = sql::AggKind::kCount;
  double total = 0.0;
  const auto out = db.query(open);
  for (std::size_t r = 0; r < out.num_rows(); ++r) total += out.column("value").double_at(r);
  EXPECT_DOUBLE_EQ(total, 7.0);  // every point lands in exactly one bucket
}

}  // namespace
}  // namespace oda::storage
