#include "observe/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "observe/scraper.hpp"

namespace oda::observe {

namespace {

std::string format_double(double v) {
  char buf[64];
  // Integral values print without a fractional tail; others keep 6 sig figs.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

double snapshot_quantile(const MetricValue& m, double q) {
  // The same interpolation live Histogram handles use — text/JSON numbers
  // match Histogram::quantile exactly for the snapshot's bucket counts.
  return quantile_from_buckets(m.buckets, m.count, q);
}

}  // namespace

std::string metrics_to_text(const MetricsSnapshot& snap) {
  std::string out;
  char buf[256];
  for (const auto& m : snap) {
    out += series_key(m.name, m.labels);
    out += ' ';
    out += metric_kind_name(m.kind);
    out += ' ';
    if (m.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf), "count=%" PRIu64 " sum=%s p50=%.3g p99=%.3g p999=%.3g",
                    m.count, format_double(m.value).c_str(), snapshot_quantile(m, 0.50),
                    snapshot_quantile(m, 0.99), snapshot_quantile(m, 0.999));
      out += buf;
    } else {
      out += format_double(m.value);
    }
    out += '\n';
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::string out = "[";
  char buf[128];
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const auto& m = snap[i];
    if (i != 0) out += ',';
    out += "\n  {\"name\":\"" + json_escape(m.name) + "\",\"kind\":\"";
    out += metric_kind_name(m.kind);
    out += "\",\"labels\":{";
    for (std::size_t j = 0; j < m.labels.size(); ++j) {
      if (j != 0) out += ',';
      out += '"' + json_escape(m.labels[j].first) + "\":\"" + json_escape(m.labels[j].second) +
             '"';
    }
    out += "},\"value\":" + format_double(m.value);
    if (m.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf), ",\"count\":%" PRIu64 ",\"p50\":%.6g,\"p99\":%.6g,\"p999\":%.6g",
                    m.count, snapshot_quantile(m, 0.50), snapshot_quantile(m, 0.99),
                    snapshot_quantile(m, 0.999));
      out += buf;
      out += ",\"buckets\":[";
      for (std::size_t j = 0; j < m.buckets.size(); ++j) {
        if (j != 0) out += ',';
        // The +inf overflow bound is not a JSON number; use the
        // Prometheus string convention so the document stays valid.
        if (std::isinf(m.buckets[j].first)) {
          std::snprintf(buf, sizeof(buf), "{\"le\":\"+Inf\",\"n\":%" PRIu64 "}",
                        m.buckets[j].second);
        } else {
          std::snprintf(buf, sizeof(buf), "{\"le\":%.6g,\"n\":%" PRIu64 "}", m.buckets[j].first,
                        m.buckets[j].second);
        }
        out += buf;
      }
      out += ']';
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

std::string one_line_summary(const MetricsSnapshot& snap) {
  auto total_of = [&](const std::string& name) {
    double total = 0.0;
    for (const auto& m : snap) {
      if (m.name == name) total += m.value;
    }
    return total;
  };
  char buf[384];
  // Engine digest: rounds plus committed batches per worker, so the
  // per-build line reflects the execution engine, not just totals.
  const double workers = total_of("engine.workers");
  const double engine_batches = total_of("engine.batches");
  const double batches_per_worker = workers > 0.0 ? engine_batches / workers : 0.0;
  std::snprintf(buf, sizeof(buf),
                "oda-metrics: %zu series | produced=%s consumed=%s batches=%s faults=%s "
                "retries=%s | engine: rounds=%s batches/worker=%s",
                snap.size(), format_double(total_of("stream.produced.records")).c_str(),
                format_double(total_of("stream.fetched.records")).c_str(),
                format_double(total_of("pipeline.batches")).c_str(),
                format_double(total_of("chaos.faults.injected")).c_str(),
                format_double(total_of("chaos.retries")).c_str(),
                format_double(total_of("engine.rounds")).c_str(),
                format_double(batches_per_worker).c_str());
  return buf;
}

std::string span_forest_to_text(const FlightDump& d) {
  // Index spans by id, hang spans and phases under their parents, then
  // emit each trace's forest with parents before children. The intervals
  // arrive in completion order, so child lists are too.
  const std::vector<FlightSpan> spans = d.spans();
  std::unordered_set<std::uint64_t> present;
  present.reserve(spans.size());
  for (const auto& s : spans) {
    if (!s.is_phase()) present.insert(s.ids.span);
  }
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::map<std::uint64_t, std::vector<std::size_t>> trace_roots;  // ordered traces
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.ids.parent != 0 && present.count(s.ids.parent) != 0) {
      children[s.ids.parent].push_back(i);
    } else if (!s.is_phase()) {
      trace_roots[s.ids.trace].push_back(i);  // root, or orphan promoted to root
    }
  }

  std::string out;
  char buf[256];
  auto emit = [&](auto&& self, std::size_t idx, int depth) -> void {
    const auto& s = spans[idx];
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += s.name(d);
    std::snprintf(buf, sizeof(buf), "  vt=[%" PRId64 "..%" PRId64 "] wall=%.1fus", s.vt_begin,
                  s.vt_end,
                  (static_cast<double>(s.wall_end_ns) - static_cast<double>(s.wall_begin_ns)) / 1e3);
    out += buf;
    if (s.is_phase() && s.rows != 0) {
      std::snprintf(buf, sizeof(buf), " rows=%" PRIu64, s.rows);
      out += buf;
    }
    out += '\n';
    if (s.is_phase()) return;
    auto it = children.find(s.ids.span);
    if (it != children.end()) {
      for (std::size_t c : it->second) self(self, c, depth + 1);
    }
  };
  for (const auto& [trace_id, roots] : trace_roots) {
    std::snprintf(buf, sizeof(buf), "trace %" PRIu64 ":\n", trace_id);
    out += buf;
    for (std::size_t r : roots) emit(emit, r, 1);
  }
  return out;
}

std::string flight_to_json(const FlightDump& d) {
  std::string out = "{\"flight\":{\"trigger\":\"" + json_escape(d.trigger) + "\"";
  char buf[384];
  std::snprintf(buf, sizeof(buf), ",\"vt\":%" PRId64 ",\"capacity\":%zu,\"emitted\":%" PRIu64
                ",\"dropped\":%" PRIu64,
                d.vt, d.capacity, d.emitted, d.dropped);
  out += buf;
  out += ",\"rings\":[";
  for (std::size_t i = 0; i < d.ring_names.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + json_escape(d.ring_names[i]) + '"';
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    const FlightEvent& e = d.events[i];
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "\n{\"ring\":%u,\"seq\":%" PRIu64 ",\"type\":\"%s\",\"phase\":\"%s\",\"vt\":%" PRId64
                  ",\"wall_us\":%.3f,\"arg\":%" PRIu64 ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"trace\":%" PRIu64 ",\"label\":\"",
                  e.ring, e.seq, flight_event_type_name(e.type), flight_phase_name(e.phase), e.vt,
                  static_cast<double>(e.wall_ns) / 1e3, e.arg, e.ids.span, e.ids.parent,
                  e.ids.trace);
    out += buf;
    out += json_escape(d.label_text(e.label));
    out += "\"}";
  }
  out += "\n]}}\n";
  return out;
}

std::string flight_to_chrome_json(const FlightDump& d) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  // One named tid row per ring (pid 1).
  for (std::size_t r = 0; r < d.ring_names.size(); ++r) {
    sep();
    out += "\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1";
    std::snprintf(buf, sizeof(buf), ",\"tid\":%zu,\"args\":{\"name\":\"", r);
    out += buf;
    out += json_escape(d.ring_names[r]);
    out += "\"}}";
  }
  for (const FlightSpan& s : d.spans()) {
    const double begin_us = static_cast<double>(s.wall_begin_ns) / 1e3;
    const double dur_us = std::max(0.0, static_cast<double>(s.wall_end_ns) / 1e3 - begin_us);
    sep();
    out += "\n  {\"name\":\"" + json_escape(s.name(d)) + "\",\"cat\":\"";
    out += s.is_phase() ? "flight" : "span";
    out += "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"vt\":%" PRId64,
                  begin_us, dur_us, s.ring, s.vt_begin);
    out += buf;
    if (s.is_phase()) {
      std::snprintf(buf, sizeof(buf), ",\"rows\":%" PRIu64 ",\"parent\":\"%" PRIu64 "\"}}", s.rows,
                    s.ids.parent);
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",\"vt_dur\":%" PRId64 ",\"span\":\"%" PRIu64 "\",\"parent\":\"%" PRIu64
                    "\",\"trace\":\"%" PRIu64 "\"}}",
                    std::max<common::TimePoint>(0, s.vt_end - s.vt_begin), s.ids.span,
                    s.ids.parent, s.ids.trace);
    }
    out += buf;
  }
  for (const FlightEvent& e : d.events) {
    switch (e.type) {
      case FlightEventType::kPhaseBegin:
      case FlightEventType::kPhaseEnd:
      case FlightEventType::kSpanBegin:
      case FlightEventType::kSpanEnd: break;
      default: {
        // Faults, retries, rebalances, SLO transitions, marks: thread-
        // scoped instant events so they pin the exact moment on the row.
        std::string name = d.label_text(e.label);
        if (name.empty()) name = flight_event_type_name(e.type);
        sep();
        out += "\n  {\"name\":\"" + json_escape(name) + "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\"";
        std::snprintf(buf, sizeof(buf),
                      ",\"ts\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"type\":\"%s\",\"vt\":%" PRId64
                      ",\"arg\":%" PRIu64 "}}",
                      static_cast<double>(e.wall_ns) / 1e3, e.ring, flight_event_type_name(e.type),
                      e.vt, e.arg);
        out += buf;
        break;
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty() || width == 0) return "";
  const std::size_t start = values.size() > width ? values.size() - width : 0;
  double lo = values[start], hi = values[start];
  for (std::size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    std::size_t level = 3;  // flat series render mid-height
    if (hi > lo) {
      level = static_cast<std::size_t>((values[i] - lo) / (hi - lo) * 7.0 + 0.5);
      if (level > 7) level = 7;
    }
    out += kBlocks[level];
  }
  return out;
}

std::string history_to_text(const HistoryStore& store, const std::string& series,
                            common::TimePoint t0, common::TimePoint t1, Resolution res) {
  const auto points = store.query(series, t0, t1, res);
  std::string out = series;
  out += " (";
  out += resolution_name(res);
  out += ", ";
  out += std::to_string(points.size());
  out += " points)\n";
  char buf[256];
  for (const auto& p : points) {
    if (res == Resolution::kRaw) {
      std::snprintf(buf, sizeof(buf), "  %" PRId64 " %.17g\n", p.t, p.last);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  %" PRId64 " min=%.17g avg=%.17g max=%.17g last=%.17g count=%" PRIu64 "\n",
                    p.t, p.min, p.avg(), p.max, p.last, p.count);
    }
    out += buf;
  }
  return out;
}

std::string history_overview(const HistoryStore& store, std::size_t width) {
  std::string out;
  char buf[64];
  for (const auto& name : store.series_names()) {
    const auto latest = store.latest(name);
    if (!latest) continue;
    std::snprintf(buf, sizeof(buf), "%14s  ", format_double(latest->last).c_str());
    out += buf;
    out += sparkline(store.recent_values(name, width), width);
    out += "  ";
    out += name;
    out += '\n';
  }
  return out;
}

std::string slos_to_text(const SloBook& book) {
  std::string out;
  char buf[256];
  for (const auto& s : book.all()) {
    const auto& spec = s->spec();
    std::snprintf(buf, sizeof(buf), "[%-8s] %-24s %s/%s %s (%zu transitions)\n",
                  slo_state_name(s->state()), spec.name.c_str(),
                  format_double(s->last_value()).c_str(), format_double(spec.crit).c_str(),
                  spec.unit.c_str(), s->transitions().size());
    out += buf;
  }
  return out;
}

std::string slos_to_json(const SloBook& book) {
  std::string out = "[";
  bool first = true;
  char buf[128];
  for (const auto& s : book.all()) {
    const auto& spec = s->spec();
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\":\"" + json_escape(spec.name) + "\",\"state\":\"";
    out += slo_state_name(s->state());
    out += "\",\"value\":" + format_double(s->last_value());
    out += ",\"warn\":" + format_double(spec.warn) + ",\"crit\":" + format_double(spec.crit);
    std::snprintf(buf, sizeof(buf), ",\"transitions\":%zu}", s->transitions().size());
    out += buf;
  }
  out += "\n]\n";
  return out;
}

}  // namespace oda::observe
