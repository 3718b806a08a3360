// Time primitives shared across the ODA framework.
//
// All telemetry, broker offsets, retention policies and window operators
// work on a single monotonic facility timeline expressed in microseconds
// since the simulation epoch. Wall-clock time never appears in the data
// path; benches measure wall time separately via std::chrono::steady_clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace oda::common {

/// Microseconds since simulation epoch. Signed so that differences are safe.
using TimePoint = std::int64_t;
/// Duration in microseconds.
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;
inline constexpr Duration kDay = 24 * kHour;

constexpr double to_seconds(Duration d) { return static_cast<double>(d) / static_cast<double>(kSecond); }
constexpr Duration from_seconds(double s) { return static_cast<Duration>(s * static_cast<double>(kSecond)); }

/// Truncate `t` down to a multiple of `bucket` (tumbling-window start).
/// Saturates at INT64_MIN instead of wrapping: for t near the bottom of
/// the timeline the floor correction `w - bucket` would overflow (UB), so
/// the window start clamps to the timeline edge. Queries with
/// t1 = INT64_MAX and a nonzero step rely on this being well-defined.
constexpr TimePoint window_start(TimePoint t, Duration bucket) {
  if (bucket <= 0) return t;
  TimePoint w = t / bucket * bucket;
  if (t < 0 && w > t) {  // floor, not trunc, for negative times
    if (w >= INT64_MIN + bucket) {
      w -= bucket;
    } else {
      w = INT64_MIN;  // saturate: can't represent the true floor
    }
  }
  return w;
}

/// Render a timepoint as "D+HH:MM:SS.mmm" relative to the simulation epoch.
std::string format_time(TimePoint t);
/// Render a duration compactly, e.g. "15s", "4.2ms", "36h".
std::string format_duration(Duration d);

/// Wall-clock stopwatch for bench/report instrumentation.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  double elapsed_ms() const { return elapsed_seconds() * 1e3; }
  double elapsed_us() const { return elapsed_seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace oda::common
