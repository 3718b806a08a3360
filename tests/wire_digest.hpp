// FNV-1a digest of broker records as they go on the wire, for tests that
// pin encoder output and topic contents to values recorded from a
// reference build. Every field is folded with a length or fixed width,
// so moving a byte from key to payload changes the digest.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.hpp"
#include "common/time.hpp"

namespace oda::testing {

class WireDigest {
 public:
  /// Fold one record: timestamp, then the length-prefixed key and payload.
  void add(common::TimePoint ts, std::string_view key, std::string_view payload) {
    word(static_cast<std::uint64_t>(ts));
    text(key);
    text(payload);
  }
  /// Fold a stored record: its offset ahead of add(ts, key, payload).
  void add(std::int64_t offset, common::TimePoint ts, std::string_view key,
           std::string_view payload) {
    word(static_cast<std::uint64_t>(offset));
    add(ts, key, payload);
  }
  /// Fold a separator, e.g. a topic name and partition index.
  void mark(std::string_view label, std::uint64_t index) {
    text(label);
    word(index);
  }
  std::uint64_t value() const { return h_; }

 private:
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
