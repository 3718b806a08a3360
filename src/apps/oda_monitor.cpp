#include "apps/oda_monitor.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/stats.hpp"
#include "observe/export.hpp"

namespace oda::apps {

using observe::SloState;

OdaMonitor::OdaMonitor(stream::Broker& broker, storage::TierManager& tiers,
                       MonitorThresholds thresholds)
    : broker_(broker), tiers_(tiers), thresholds_(thresholds) {
  slos_.add({.name = "stream.lag",
             .subject = "fleet consumer lag vs broker offsets",
             .unit = "records",
             .warn = static_cast<double>(thresholds_.lag_warn),
             .crit = static_cast<double>(thresholds_.lag_crit),
             .breach_hold = thresholds_.breach_hold,
             .clear_after = thresholds_.clear_after});
  slos_.add({.name = "pipeline.freshness",
             .subject = "worst watermark delay across watched queries",
             .unit = "us",
             .warn = static_cast<double>(thresholds_.freshness_warn),
             .crit = static_cast<double>(thresholds_.freshness_crit),
             .breach_hold = thresholds_.breach_hold,
             .clear_after = thresholds_.clear_after});
  slos_.add({.name = "telemetry.drops",
             .subject = "collection records dropped after retries",
             .unit = "records",
             .warn = thresholds_.drop_warn,
             .crit = thresholds_.drop_crit,
             .breach_hold = 0,
             .clear_after = thresholds_.clear_after});
}

void OdaMonitor::watch_query(const engine::Query& query) { watched_.push_back(&query); }

void OdaMonitor::watch_engine(const engine::Engine& engine) { engines_.push_back(&engine); }

void OdaMonitor::tick(common::TimePoint now) {
  last_tick_ = now;

  // Consumer lag: walk the broker's committed-offset store against each
  // partition's end offset. Groups that never committed don't appear —
  // their lag is invisible to the broker too.
  for (const auto& row : broker_.committed_offsets()) {
    const stream::Topic* t = broker_.find_topic(row.tp.topic);
    if (t == nullptr || row.tp.partition >= t->num_partitions()) continue;
    lag_.observe_offsets(row.group, row.tp.topic, row.tp.partition,
                         t->partition(row.tp.partition).end_offset(), row.offset);
  }

  // Watermark freshness per watched query.
  for (const engine::Query* q : watched_) {
    lag_.observe_watermark(q->name(), q->watermark(), now);
  }

  // Tier backlogs from the tier manager's own report.
  for (const auto& r : tiers_.report()) {
    lag_.observe_backlog(storage::tier_name(r.tier), r.bytes, r.items);
  }

  // SLO evaluation.
  slos_.update("stream.lag", static_cast<double>(lag_.fleet_lag()), now);
  common::Duration worst_delay = 0;
  for (const auto& ws : lag_.watermarks()) worst_delay = std::max(worst_delay, ws.delay);
  if (!watched_.empty()) {
    slos_.update("pipeline.freshness", static_cast<double>(worst_delay), now);
  }
  const double drops = static_cast<double>(
      observe::default_registry().counter("telemetry.dropped.records")->value());
  slos_.update("telemetry.drops", drops, now);
}

std::string OdaMonitor::render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "=== ODA self-observability monitor  [%s]  vt=%" PRId64 " ===\n",
                observe::slo_state_name(overall()), last_tick_);
  out += buf;
  out += observe::slos_to_text(slos_);

  const auto groups = lag_.group_lags();
  if (!groups.empty()) {
    out += "-- consumer lag --\n";
    for (const auto& g : groups) {
      std::snprintf(buf, sizeof(buf), "  %-20s %-24s lag=%" PRId64 " (peak %" PRId64 ", %zu parts)\n",
                    g.group.c_str(), g.topic.c_str(), g.total_lag, g.peak_lag,
                    g.partitions.size());
      out += buf;
    }
  }

  const auto wms = lag_.watermarks();
  if (!wms.empty()) {
    out += "-- watermarks --\n";
    for (const auto& w : wms) {
      if (w.ever_advanced) {
        std::snprintf(buf, sizeof(buf), "  %-28s wm=%" PRId64 " delay=%" PRId64 "us\n",
                      w.name.c_str(), w.watermark, w.delay);
      } else {
        std::snprintf(buf, sizeof(buf), "  %-28s (never advanced)\n", w.name.c_str());
      }
      out += buf;
    }
  }

  const auto backlogs = lag_.backlogs();
  if (!backlogs.empty()) {
    out += "-- tier backlogs --\n";
    for (const auto& b : backlogs) {
      std::snprintf(buf, sizeof(buf), "  %-10s %12s  %zu items\n", b.tier.c_str(),
                    common::format_bytes(b.bytes).c_str(), b.items);
      out += buf;
    }
  }

  if (!engines_.empty()) {
    out += "-- engines --\n";
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      const engine::Engine* e = engines_[i];
      const engine::EngineStats s = e->stats();
      std::snprintf(buf, sizeof(buf),
                    "  engine%zu  workers=%zu queries=%zu rounds=%" PRIu64 " batches=%" PRIu64
                    " rows=%" PRIu64 " wall=%.3fs\n",
                    i, e->workers(), e->queries().size(), s.rounds, s.batches, s.rows,
                    s.wall_seconds);
      out += buf;
      // Ownership view: which worker owns how many partitions, how many
      // lane results it handed to the merge point, and whether it is
      // still alive (rebalances show up as owned moving between rows).
      for (const auto& [query, ws] : e->worker_info()) {
        std::snprintf(buf, sizeof(buf),
                      "    %-24s worker%zu %s owned=%zu rows=%" PRIu64 " handoffs=%" PRIu64 "\n",
                      query.c_str(), ws.worker, ws.alive ? "up  " : "dead", ws.owned_partitions,
                      ws.rows_fetched, ws.handoffs);
        out += buf;
      }
    }
  }
  return out;
}

std::string OdaMonitor::to_json() const {
  std::string out = "{\"overall\":\"";
  out += observe::slo_state_name(overall());
  out += "\",\"slos\":";
  out += observe::slos_to_json(slos_);
  // slos_to_json ends with "]\n" — trim the newline before continuing.
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += ",\"fleet_lag\":" + std::to_string(lag_.fleet_lag());
  out += ",\"groups\":[";
  bool first = true;
  for (const auto& g : lag_.group_lags()) {
    if (!first) out += ',';
    first = false;
    out += "{\"group\":\"" + observe::json_escape(g.group) + "\",\"topic\":\"" +
           observe::json_escape(g.topic) + "\",\"lag\":" + std::to_string(g.total_lag) +
           ",\"peak\":" + std::to_string(g.peak_lag) + '}';
  }
  out += "],\"engines\":[";
  first = true;
  for (const engine::Engine* e : engines_) {
    if (!first) out += ',';
    first = false;
    const engine::EngineStats s = e->stats();
    out += "{\"workers\":" + std::to_string(e->workers()) +
           ",\"queries\":" + std::to_string(e->queries().size()) +
           ",\"rounds\":" + std::to_string(s.rounds) +
           ",\"batches\":" + std::to_string(s.batches) + ",\"rows\":" + std::to_string(s.rows) +
           ",\"worker_info\":[";
    bool first_w = true;
    for (const auto& [query, ws] : e->worker_info()) {
      if (!first_w) out += ',';
      first_w = false;
      out += "{\"query\":\"" + observe::json_escape(query) +
             "\",\"worker\":" + std::to_string(ws.worker) +
             ",\"alive\":" + (ws.alive ? "true" : "false") +
             ",\"owned\":" + std::to_string(ws.owned_partitions) +
             ",\"rows\":" + std::to_string(ws.rows_fetched) +
             ",\"handoffs\":" + std::to_string(ws.handoffs) + '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string OdaMonitor::one_line() {
  return observe::one_line_summary(observe::default_registry().snapshot());
}

// ---------------------------------------------------------------------------
// Flight-dump viewer
// ---------------------------------------------------------------------------

namespace {

// Scanners over flight_to_json's fixed key order. They only need to read
// back what the exporter writes, so "not found" is a format error.
[[noreturn]] void bad_flight(const std::string& why) {
  throw std::runtime_error("oda_monitor: not a flight dump (" + why + ")");
}

double scan_number(const std::string& s, const std::string& key, std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = s.find(needle, from);
  if (at == std::string::npos) bad_flight("missing \"" + key + "\"");
  return std::strtod(s.c_str() + at + needle.size(), nullptr);
}

std::string scan_string(const std::string& s, const std::string& key, std::size_t from) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = s.find(needle, from);
  if (at == std::string::npos) bad_flight("missing \"" + key + "\"");
  std::string out;
  for (std::size_t i = at + needle.size(); i < s.size(); ++i) {
    char c = s[i];
    if (c == '"') return out;
    if (c == '\\' && i + 1 < s.size()) {
      c = s[++i];
      switch (c) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          // json_escape only \u-encodes control bytes; decode the low byte.
          if (i + 4 < s.size()) {
            out += static_cast<char>(std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
            i += 4;
          }
          break;
        default: out += c;  // \" and
      }
    } else {
      out += c;
    }
  }
  bad_flight("unterminated string for \"" + key + "\"");
}

observe::FlightEventType scan_event_type(const std::string& name) {
  using observe::FlightEventType;
  for (int t = 0; t <= static_cast<int>(FlightEventType::kSpanEnd); ++t) {
    const auto et = static_cast<FlightEventType>(t);
    if (name == observe::flight_event_type_name(et)) return et;
  }
  bad_flight("unknown event type '" + name + "'");
}

observe::FlightPhase scan_phase(const std::string& name) {
  using observe::FlightPhase;
  for (int p = 0; p < static_cast<int>(observe::kFlightPhases); ++p) {
    const auto fp = static_cast<FlightPhase>(p);
    if (name == observe::flight_phase_name(fp)) return fp;
  }
  bad_flight("unknown phase '" + name + "'");
}

}  // namespace

observe::FlightDump parse_flight_json(const std::string& text) {
  if (text.find("{\"flight\":{") == std::string::npos) bad_flight("no {\"flight\":...} header");
  observe::FlightDump d;
  d.trigger = scan_string(text, "trigger", 0);
  d.vt = static_cast<common::TimePoint>(scan_number(text, "vt", 0));
  d.capacity = static_cast<std::size_t>(scan_number(text, "capacity", 0));
  d.emitted = static_cast<std::uint64_t>(scan_number(text, "emitted", 0));
  d.dropped = static_cast<std::uint64_t>(scan_number(text, "dropped", 0));

  const std::size_t rings_at = text.find("\"rings\":[");
  if (rings_at == std::string::npos) bad_flight("missing \"rings\"");
  for (std::size_t i = rings_at + 9; i < text.size() && text[i] != ']';) {
    if (text[i] == '"') {
      std::size_t end = i + 1;
      while (end < text.size() && text[end] != '"') end += text[end] == '\\' ? 2 : 1;
      d.ring_names.push_back(text.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      ++i;
    }
  }

  d.labels.emplace_back();  // id 0 = ""
  // One event object per line — split on the '\n' the exporter emits
  // before each "{\"ring\":...}".
  std::size_t pos = text.find("\"events\":[");
  if (pos == std::string::npos) bad_flight("missing \"events\"");
  while ((pos = text.find("\n{\"ring\":", pos)) != std::string::npos) {
    const std::size_t eol = text.find('\n', pos + 1);
    const std::string line = text.substr(pos + 1, eol == std::string::npos ? std::string::npos
                                                                           : eol - pos - 1);
    observe::FlightEvent e;
    e.ring = static_cast<std::uint32_t>(scan_number(line, "ring", 0));
    e.seq = static_cast<std::uint64_t>(scan_number(line, "seq", 0));
    e.type = scan_event_type(scan_string(line, "type", 0));
    e.phase = scan_phase(scan_string(line, "phase", 0));
    e.vt = static_cast<common::TimePoint>(scan_number(line, "vt", 0));
    e.wall_ns = static_cast<std::uint64_t>(scan_number(line, "wall_us", 0) * 1e3);
    e.arg = static_cast<std::uint64_t>(scan_number(line, "arg", 0));
    e.ids.span = static_cast<std::uint64_t>(scan_number(line, "span", 0));
    e.ids.parent = static_cast<std::uint64_t>(scan_number(line, "parent", 0));
    e.ids.trace = static_cast<std::uint64_t>(scan_number(line, "trace", 0));
    const std::string label = scan_string(line, "label", 0);
    if (!label.empty()) {
      std::size_t id = 0;
      for (; id < d.labels.size(); ++id) {
        if (d.labels[id] == label) break;
      }
      if (id == d.labels.size()) d.labels.push_back(label);
      e.label = static_cast<std::uint32_t>(id);
    }
    d.events.push_back(e);
    pos = eol == std::string::npos ? text.size() : eol;
  }
  return d;
}

std::string render_flight(const observe::FlightDump& d, std::size_t tail) {
  using observe::FlightEventType;
  using observe::FlightPhase;
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "=== flight dump  trigger=%s  vt=%" PRId64 "  events=%zu (emitted=%" PRIu64
                " dropped=%" PRIu64 ", %zu rings x %zu slots) ===\n",
                d.trigger.c_str(), d.vt, d.events.size(), d.emitted, d.dropped,
                d.ring_names.size(), d.capacity);
  out += buf;

  // Per-ring wall time per phase, from the dump's begin/end pairs.
  const std::size_t rings = d.ring_names.size();
  std::vector<std::array<double, observe::kFlightPhases>> phase_ms(rings);
  std::vector<std::uint64_t> faults(rings, 0), retries(rings, 0), rebalances(rings, 0);
  std::vector<std::uint64_t> counts(rings, 0);
  for (auto& a : phase_ms) a.fill(0.0);
  for (const observe::FlightSpan& s : d.spans()) {
    if (!s.is_phase() || s.ring >= rings || s.wall_end_ns < s.wall_begin_ns) continue;
    phase_ms[s.ring][static_cast<std::size_t>(s.phase)] +=
        static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e6;
  }
  for (const observe::FlightEvent& e : d.events) {
    if (e.ring >= rings) continue;
    ++counts[e.ring];
    switch (e.type) {
      case FlightEventType::kFault: ++faults[e.ring]; break;
      case FlightEventType::kRetry: ++retries[e.ring]; break;
      case FlightEventType::kRebalance: ++rebalances[e.ring]; break;
      default: break;
    }
  }
  out += "-- phase timeline (wall ms; [barrier] = stall waiting on the team) --\n";
  std::snprintf(buf, sizeof(buf), "  %-8s %10s %10s %10s %12s %10s %10s %6s %6s %6s %6s\n", "ring",
                "fetch", "decode", "operate", "[barrier]", "merge", "commit", "fault", "retry",
                "rebal", "evts");
  out += buf;
  for (std::size_t r = 0; r < rings; ++r) {
    const auto& ms = phase_ms[r];
    char barrier[16];
    std::snprintf(barrier, sizeof(barrier), "[%.3f]",
                  ms[static_cast<std::size_t>(FlightPhase::kBarrier)]);
    std::snprintf(buf, sizeof(buf),
                  "  %-8s %10.3f %10.3f %10.3f %12s %10.3f %10.3f %6" PRIu64 " %6" PRIu64
                  " %6" PRIu64 " %6" PRIu64 "\n",
                  d.ring_name(static_cast<std::uint32_t>(r)).c_str(),
                  ms[static_cast<std::size_t>(FlightPhase::kFetch)],
                  ms[static_cast<std::size_t>(FlightPhase::kDecode)],
                  ms[static_cast<std::size_t>(FlightPhase::kOperate)], barrier,
                  ms[static_cast<std::size_t>(FlightPhase::kMerge)],
                  ms[static_cast<std::size_t>(FlightPhase::kCommit)], faults[r], retries[r],
                  rebalances[r], counts[r]);
    out += buf;
  }

  if (tail > 0 && !d.events.empty()) {
    const std::size_t n = std::min(tail, d.events.size());
    std::snprintf(buf, sizeof(buf), "-- last %zu events --\n", n);
    out += buf;
    std::snprintf(buf, sizeof(buf), "  %12s %-8s %-12s %-8s %10s  %s\n", "wall_us", "ring", "type",
                  "phase", "arg", "label");
    out += buf;
    for (std::size_t i = d.events.size() - n; i < d.events.size(); ++i) {
      const observe::FlightEvent& e = d.events[i];
      std::snprintf(buf, sizeof(buf), "  %12.3f %-8s %-12s %-8s %10" PRIu64 "  %s\n",
                    static_cast<double>(e.wall_ns) / 1e3, d.ring_name(e.ring).c_str(),
                    observe::flight_event_type_name(e.type), observe::flight_phase_name(e.phase),
                    e.arg, d.label_text(e.label).c_str());
      out += buf;
    }
  }
  return out;
}

std::string render_serve(const serve::LakeServer& server, const core::AllocationManager& quotas) {
  const serve::ServeStats s = server.stats();
  const std::uint64_t lookups = s.cache.hits + s.cache.misses;
  const double hit_rate =
      lookups ? 100.0 * static_cast<double>(s.cache.hits) / static_cast<double>(lookups) : 0.0;
  char buf[256];
  std::string out = "-- LAKE serving report --\n";
  std::snprintf(buf, sizeof(buf),
                "scheduler  depth %zu/%zu  admitted %" PRIu64 "  completed %" PRIu64
                "  shed %" PRIu64 "\n",
                s.queue_depth, server.config().max_queue, s.admitted, s.completed, s.shed);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "           queue_rejected %" PRIu64 "  quota_rejected %" PRIu64
                "  shed_slo %s\n",
                s.queue_rejected, s.quota_rejected, observe::slo_state_name(s.shed_state));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "cache      hits %" PRIu64 "  misses %" PRIu64 "  hit_rate %.1f%%  stale %" PRIu64
                "  evictions %" PRIu64 "\n",
                s.cache.hits, s.cache.misses, hit_rate, s.cache.stale_drops, s.cache.evictions);
  out += buf;
  std::snprintf(buf, sizeof(buf), "           entries %zu  bytes %zu\n", s.cache.entries,
                s.cache.bytes);
  out += buf;
  std::snprintf(buf, sizeof(buf), "plans      rollup_served %" PRIu64 "\n", s.rollup_served);
  out += buf;
  out += "projects\n";
  for (const auto& project : quotas.projects()) {
    const auto u = quotas.usage(project);
    const auto it = s.projects.find(project);
    const serve::ProjectServeStats ps = it == s.projects.end() ? serve::ProjectServeStats{}
                                                               : it->second;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s admitted %-6" PRIu64 " quota_rejected %-6" PRIu64
                  " slots %.1f/%.1f\n",
                  project.c_str(), ps.admitted, ps.quota_rejected, u->used.service_slots,
                  u->granted.service_slots);
    out += buf;
  }
  return out;
}

std::string serve_report_json(const serve::LakeServer& server,
                              const core::AllocationManager& quotas) {
  const serve::ServeStats s = server.stats();
  std::string out = "{\"scheduler\":{";
  out += "\"depth\":" + std::to_string(s.queue_depth);
  out += ",\"max_queue\":" + std::to_string(server.config().max_queue);
  out += ",\"admitted\":" + std::to_string(s.admitted);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"shed\":" + std::to_string(s.shed);
  out += ",\"queue_rejected\":" + std::to_string(s.queue_rejected);
  out += ",\"quota_rejected\":" + std::to_string(s.quota_rejected);
  out += ",\"shed_slo\":\"";
  out += observe::slo_state_name(s.shed_state);
  out += "\"},\"cache\":{";
  out += "\"hits\":" + std::to_string(s.cache.hits);
  out += ",\"misses\":" + std::to_string(s.cache.misses);
  out += ",\"stale_drops\":" + std::to_string(s.cache.stale_drops);
  out += ",\"evictions\":" + std::to_string(s.cache.evictions);
  out += ",\"inserts\":" + std::to_string(s.cache.inserts);
  out += ",\"entries\":" + std::to_string(s.cache.entries);
  out += ",\"bytes\":" + std::to_string(s.cache.bytes);
  out += "},\"plans\":{\"rollup_served\":" + std::to_string(s.rollup_served);
  out += "},\"projects\":[";
  bool first = true;
  for (const auto& project : quotas.projects()) {
    if (!first) out += ',';
    first = false;
    const auto u = quotas.usage(project);
    const auto it = s.projects.find(project);
    const serve::ProjectServeStats ps = it == s.projects.end() ? serve::ProjectServeStats{}
                                                               : it->second;
    char num[64];
    out += "{\"project\":\"" + observe::json_escape(project) + '"';
    out += ",\"admitted\":" + std::to_string(ps.admitted);
    out += ",\"quota_rejected\":" + std::to_string(ps.quota_rejected);
    std::snprintf(num, sizeof(num), "%.3f", u->used.service_slots);
    out += ",\"slots_used\":" + std::string(num);
    std::snprintf(num, sizeof(num), "%.3f", u->granted.service_slots);
    out += ",\"slots_granted\":" + std::string(num);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace oda::apps
