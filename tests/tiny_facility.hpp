// A tiny seeded facility for end-to-end engine and chaos tests: two
// cabinets of four nodes with one CPU and one GPU each, sampled every
// second without loss; the Bronze→Silver stage that refines its power
// stream (a 15 s window per (node, sensor), one instance per partition
// lane); and a reader that decodes a whole TopicSink-produced topic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pipeline/operator.hpp"
#include "pipeline/source_sink.hpp"
#include "sql/agg.hpp"
#include "sql/ops.hpp"
#include "stream/broker.hpp"
#include "telemetry/simulator.hpp"

namespace oda::testing {

inline telemetry::SystemSpec tiny_spec() {
  telemetry::SystemSpec s;
  s.name = "tiny";
  s.cabinets = 2;
  s.nodes_per_cabinet = 4;
  s.components = {
      {telemetry::ComponentKind::kCpu, 1, 50.0, 200.0, 32.0, 0.1},
      {telemetry::ComponentKind::kGpu, 1, 60.0, 400.0, 30.0, 0.08},
  };
  s.sensor_period = common::kSecond;
  s.sample_loss_rate = 0.0;
  return s;
}

inline std::unique_ptr<pipeline::Operator> silver_window() {
  return std::make_unique<pipeline::WindowAggOp>(
      "w15", "time", 15 * common::kSecond, std::vector<std::string>{"node_id", "sensor"},
      std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"},
                                {"value", sql::AggKind::kCount, "samples"}});
}

/// Every row a TopicSink published to `topic`, decoded in partition
/// order (publish order on a one-partition topic), read by a group of
/// its own.
inline sql::Table topic_rows(stream::Broker& broker, const std::string& topic) {
  stream::GroupMember reader(broker, "topic-rows-reader", topic);
  std::vector<sql::Table> parts;
  for (auto batch = reader.poll(1024); !batch.empty(); batch = reader.poll(1024)) {
    parts.push_back(pipeline::decode_columnar_records(batch.records()));
  }
  return parts.empty() ? sql::Table{} : sql::concat(parts);
}

}  // namespace oda::testing
