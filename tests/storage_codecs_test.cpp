// Codec tests: exact round-trips across data shapes, plus parameterized
// fuzz over random distributions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "storage/codecs.hpp"

namespace oda::storage {
namespace {

TEST(Int64DeltaTest, RoundTripBasics) {
  const std::vector<std::int64_t> vals{0, 1, -1, 1000000, -1000000, INT64_MAX, INT64_MIN + 1};
  EXPECT_EQ(decode_int64_delta(encode_int64_delta(vals)), vals);
}

TEST(Int64DeltaTest, EmptyAndSingle) {
  EXPECT_TRUE(decode_int64_delta(encode_int64_delta({})).empty());
  const std::vector<std::int64_t> one{42};
  EXPECT_EQ(decode_int64_delta(encode_int64_delta(one)), one);
}

TEST(Int64DeltaTest, SortedTimestampsCompressWell) {
  std::vector<std::int64_t> ts;
  for (std::int64_t i = 0; i < 10000; ++i) ts.push_back(1700000000000000 + i * 1000000);
  const auto enc = encode_int64_delta(ts);
  EXPECT_LT(enc.size(), ts.size() * 8 / 2);  // >2x on regular second-scale deltas
  EXPECT_EQ(decode_int64_delta(enc), ts);
}

TEST(Float64BssTest, RoundTripAndRepeatedValuesShrink) {
  std::vector<double> flat(5000, 273.15);
  const auto enc = encode_float64_bss(flat);
  EXPECT_LT(enc.size(), flat.size());  // constant values collapse via RLE
  EXPECT_EQ(decode_float64_bss(enc), flat);
}

TEST(Float64BssTest, NoiseNeverExplodes) {
  common::Rng rng(3);
  std::vector<double> noise;
  for (int i = 0; i < 4096; ++i) noise.push_back(rng.normal(250.0, 40.0));
  const auto enc = encode_float64_bss(noise);
  EXPECT_LT(enc.size(), noise.size() * 8 + noise.size() / 8 + 64);  // ~<= raw + small overhead
  EXPECT_EQ(decode_float64_bss(enc), noise);
}

TEST(StringDictTest, RoundTripAndLowCardinalityShrinks) {
  std::vector<std::string> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back("sensor_" + std::to_string(i % 20));
  const auto enc = encode_strings_dict(vals);
  EXPECT_LT(enc.size(), 5000u * 4u);
  EXPECT_EQ(decode_strings_dict(enc), vals);
}

TEST(StringDictTest, EmptyStringsAndUnicodeBytes) {
  const std::vector<std::string> vals{"", "a\xc3\xa9", "", std::string(1, '\0')};
  EXPECT_EQ(decode_strings_dict(encode_strings_dict(vals)), vals);
}

TEST(BoolsTest, RoundTripAllLengths) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 200u}) {
    std::vector<std::uint8_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = (i * 7) % 3 == 0 ? 1 : 0;
    EXPECT_EQ(decode_bools(encode_bools(vals)), vals) << "n=" << n;
  }
}

TEST(RleTest, RoundTripAndRunsCollapse) {
  std::vector<std::uint8_t> runs(10000, 1);
  runs[5000] = 0;
  const auto enc = rle_encode(runs);
  EXPECT_LT(enc.size(), 32u);
  EXPECT_EQ(rle_decode(enc), runs);
}

TEST(RleTest, EmptyAndAlternating) {
  EXPECT_TRUE(rle_decode(rle_encode({})).empty());
  std::vector<std::uint8_t> alt;
  for (int i = 0; i < 100; ++i) alt.push_back(i % 2);
  EXPECT_EQ(rle_decode(rle_encode(alt)), alt);
}

TEST(LzTest, RoundTripText) {
  std::string text;
  for (int i = 0; i < 500; ++i) text += "the quick brown fox jumps over the lazy dog; ";
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  const auto enc = lz_compress(data);
  EXPECT_LT(enc.size(), data.size() / 4);  // highly repetitive
  EXPECT_EQ(lz_decompress(enc), data);
}

TEST(LzTest, EmptyAndTiny) {
  EXPECT_TRUE(lz_decompress(lz_compress({})).empty());
  const std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_EQ(lz_decompress(lz_compress(tiny)), tiny);
}

TEST(LzTest, IncompressibleSurvives) {
  common::Rng rng(9);
  std::vector<std::uint8_t> noise(1 << 16);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
  const auto enc = lz_compress(noise);
  EXPECT_EQ(lz_decompress(enc), noise);
  EXPECT_LT(enc.size(), noise.size() * 9 / 8 + 64);  // bounded expansion
}

TEST(LzTest, LongMatchesAcrossSegments) {
  // A long repeated block larger than the max match length exercises
  // chained matches.
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i & 0xff));
  }
  EXPECT_EQ(lz_decompress(lz_compress(data)), data);
}

// ---- parameterized fuzz: every codec round-trips on random shapes ----

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, AllCodecsRoundTrip) {
  common::Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(3000);

  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<std::uint8_t> bytes, bools;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_index(4)) {
      case 0: ints.push_back(rng.uniform_int(-5, 5)); break;
      case 1: ints.push_back(static_cast<std::int64_t>(rng.next())); break;
      case 2: ints.push_back(INT64_MAX - static_cast<std::int64_t>(rng.uniform_index(3))); break;
      default: ints.push_back(INT64_MIN + static_cast<std::int64_t>(rng.uniform_index(3))); break;
    }
    doubles.push_back(rng.bernoulli(0.3) ? 42.0 : rng.normal(0, 1e6));
    strings.push_back(rng.bernoulli(0.5) ? "common" : std::string(rng.uniform_index(20), 'a' + (i % 26)));
    bytes.push_back(static_cast<std::uint8_t>(rng.bernoulli(0.8) ? 7 : rng.next()));
    bools.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  EXPECT_EQ(decode_int64_delta(encode_int64_delta(ints)), ints);
  EXPECT_EQ(decode_float64_bss(encode_float64_bss(doubles)), doubles);
  EXPECT_EQ(decode_strings_dict(encode_strings_dict(strings)), strings);
  EXPECT_EQ(decode_bools(encode_bools(bools)), bools);
  EXPECT_EQ(rle_decode(rle_encode(bytes)), bytes);
  EXPECT_EQ(lz_decompress(lz_compress(bytes)), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

}  // namespace
}  // namespace oda::storage
