// Tests for in-stream inference (Fig 9's downstream inference workloads
// running inside the pipeline) and the cooling integrator ablation.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/anomaly.hpp"
#include "engine/engine.hpp"
#include "storage/columnar.hpp"
#include "twin/cooling.hpp"

namespace oda {
namespace {

using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

TEST(InferenceOpTest, AppendsScoresAndAlerts) {
  Table t{Schema{{"time", DataType::kInt64}, {"a", DataType::kFloat64}, {"b", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value(1.0), Value(2.0)});
  t.append_row({Value(std::int64_t{1}), Value(10.0), Value(20.0)});
  t.append_row({Value(std::int64_t{2}), Value::null(), Value(1.0)});

  pipeline::InferenceOp op(
      "score", {"a", "b"}, [](std::span<const double> x) { return x[0] + x[1]; }, "sum_score",
      /*alert_threshold=*/5.0, "alert");
  auto out = op.process({std::move(t), 0});
  ASSERT_EQ(out.table.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(out.table.column("sum_score").double_at(0), 3.0);
  EXPECT_FALSE(out.table.column("alert").bool_at(0));
  EXPECT_DOUBLE_EQ(out.table.column("sum_score").double_at(1), 30.0);
  EXPECT_TRUE(out.table.column("alert").bool_at(1));
  EXPECT_TRUE(out.table.column("sum_score").is_null(2));  // null feature -> null score
  EXPECT_EQ(op.rows_scored(), 2u);
  EXPECT_EQ(op.alerts(), 1u);
}

TEST(InferenceOpTest, AnomalyDetectorInStream) {
  // Train a detector offline, then deploy it as a pipeline stage —
  // the registry-to-inference hand-off of Fig 9.
  common::Rng rng(3);
  ml::FeatureMatrix healthy(400, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    const double load = rng.uniform(0.2, 1.0);
    healthy.at(i, 0) = 1000 + 2000 * load + rng.normal(0, 20);
    healthy.at(i, 1) = 30 + 40 * load + rng.normal(0, 1);
  }
  auto detector = std::make_shared<ml::AnomalyDetector>();
  detector->fit(healthy, 5);

  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  stream::BatchBuilder staged;
  auto produce = [&](double power, double temp) {
    Table row{Schema{{"time", DataType::kInt64},
                     {"power", DataType::kFloat64},
                     {"temp", DataType::kFloat64}}};
    row.append_row({Value(std::int64_t{0}), Value(power), Value(temp)});
    const auto blob = storage::write_columnar(row);
    staged.add(0, "", std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
  };
  for (int i = 0; i < 30; ++i) produce(1000 + 2000 * 0.5, 30 + 40 * 0.5);  // healthy
  for (int i = 0; i < 5; ++i) produce(1000 + 2000 * 0.3, 30 + 40 * 0.3 + 18.0);  // runaway temp
  broker.producer("in").produce_staged(staged);

  pipeline::QueryConfig qc;
  qc.name = "detect";
  engine::Query q(qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
                  /*workers=*/1);
  const double threshold = detector->threshold();
  q.add_operator([detector, threshold] {
    return std::make_unique<pipeline::InferenceOp>(
        "anomaly", std::vector<std::string>{"power", "temp"},
        [detector](std::span<const double> x) { return detector->score(x); }, "anomaly_score",
        threshold, "alert");
  });
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  q.run_until_caught_up();

  ASSERT_EQ(out->table().num_rows(), 35u);
  std::size_t healthy_alerts = 0, anomaly_alerts = 0;
  for (std::size_t r = 0; r < 30; ++r) {
    if (out->table().column("alert").bool_at(r)) ++healthy_alerts;
  }
  for (std::size_t r = 30; r < 35; ++r) {
    if (out->table().column("alert").bool_at(r)) ++anomaly_alerts;
  }
  EXPECT_LE(healthy_alerts, 2u);
  EXPECT_GE(anomaly_alerts, 4u);
}

// ---- integrator ablation ---------------------------------------------------

TEST(IntegratorTest, EulerMatchesRk4AtSmallSteps) {
  twin::CoolingConfig rk4_cfg, euler_cfg;
  euler_cfg.integrator = twin::Integrator::kEuler;
  twin::CoolingSystemModel rk4(rk4_cfg), euler(euler_cfg);
  twin::CoolingOutputs a, b;
  for (int i = 0; i < 4000; ++i) {
    a = rk4.step(1.0, 15e6, 18.0);
    b = euler.step(1.0, 15e6, 18.0);
  }
  EXPECT_NEAR(a.state.t_coldplate_c, b.state.t_coldplate_c, 0.5);
  EXPECT_NEAR(a.state.t_return_c, b.state.t_return_c, 0.5);
}

TEST(IntegratorTest, EulerUnstableAtLargeStepWhereRk4Survives) {
  // Fastest lump: tau = coldplate_capacity / ua_coldplate ~ 21 s.
  // Coupled-lump fastest mode: tau_eff ~ 17 s. Euler stable below ~35 s,
  // RK4 below ~48 s — a 40 s step separates them.
  twin::CoolingConfig rk4_cfg, euler_cfg;
  euler_cfg.integrator = twin::Integrator::kEuler;
  twin::CoolingSystemModel rk4(rk4_cfg), euler(euler_cfg);
  double euler_extreme = 0.0, rk4_extreme = 0.0;
  for (int i = 0; i < 400; ++i) {
    const auto a = rk4.step(40.0, 20e6, 18.0);
    const auto b = euler.step(40.0, 20e6, 18.0);
    rk4_extreme = std::max(rk4_extreme, std::abs(a.state.t_coldplate_c));
    euler_extreme = std::max(euler_extreme, std::abs(b.state.t_coldplate_c));
  }
  EXPECT_LT(rk4_extreme, 100.0);  // physically sane
  EXPECT_GT(euler_extreme, rk4_extreme * 2.0);  // oscillating/diverging
}

}  // namespace
}  // namespace oda
