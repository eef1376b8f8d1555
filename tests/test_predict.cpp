// rpv::predict — estimator math, HO predictor scoring edge cases, capacity
// forecaster self-scoring, the proactive adapter's policy surface, the
// prediction block's JSON round trip, and byte-identical proactive campaigns
// across worker counts.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "exec/campaign_engine.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "json/json.hpp"
#include "pipeline/session.hpp"
#include "pipeline/report_json.hpp"
#include "predict/estimators.hpp"
#include "predict/link_predictor.hpp"
#include "predict/proactive_adapter.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

// --- Ewma ---

TEST(Ewma, FirstSampleSetsValueExactly) {
  predict::Ewma e{0.3};
  EXPECT_FALSE(e.initialized());
  e.update(42.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  predict::Ewma e{0.3};
  for (int i = 0; i < 60; ++i) e.update(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-12);
}

TEST(Ewma, StepResponseMovesMonotonicallyTowardNewLevel) {
  predict::Ewma e{0.5};
  for (int i = 0; i < 30; ++i) e.update(0.0);
  double prev = e.value();
  e.update(10.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-9);  // alpha 0.5: halfway in one step
  for (int i = 0; i < 40; ++i) {
    prev = e.value();
    e.update(10.0);
    EXPECT_GE(e.value(), prev);
    EXPECT_LE(e.value(), 10.0);
  }
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, RejectsAlphaOutsideUnitInterval) {
  EXPECT_THROW(predict::Ewma{0.0}, std::invalid_argument);
  EXPECT_THROW(predict::Ewma{1.5}, std::invalid_argument);
  EXPECT_NO_THROW(predict::Ewma{1.0});
}

// --- HoltFilter ---

TEST(HoltFilter, TracksPerfectLinearRampExactly) {
  // On a noiseless ramp the level locks to the latest sample and the trend to
  // the per-step slope, so any-horizon forecasts are exact.
  predict::HoltFilter f{0.45, 0.25};
  double x = 3.0;
  for (int i = 0; i < 20; ++i, x += 2.0) f.update(x);
  const double last = x - 2.0;
  EXPECT_TRUE(f.initialized());
  EXPECT_NEAR(f.level(), last, 1e-9);
  EXPECT_NEAR(f.trend(), 2.0, 1e-9);
  EXPECT_NEAR(f.forecast(8.0), last + 16.0, 1e-9);
}

TEST(HoltFilter, ConvergesOnConstantInput) {
  predict::HoltFilter f{0.5, 0.3};
  for (int i = 0; i < 80; ++i) f.update(7.0);
  EXPECT_NEAR(f.level(), 7.0, 1e-9);
  EXPECT_NEAR(f.trend(), 0.0, 1e-9);
  EXPECT_NEAR(f.forecast(10.0), 7.0, 1e-8);
}

TEST(HoltFilter, StepResponseReacquiresNewLevelAndFlatTrend) {
  predict::HoltFilter f{0.5, 0.3};
  for (int i = 0; i < 40; ++i) f.update(0.0);
  for (int i = 0; i < 120; ++i) f.update(10.0);
  EXPECT_NEAR(f.level(), 10.0, 1e-6);
  EXPECT_NEAR(f.trend(), 0.0, 1e-6);
}

TEST(HoltFilter, NotInitializedUntilTrendHasABasis) {
  predict::HoltFilter f;
  EXPECT_FALSE(f.initialized());
  f.update(1.0);
  EXPECT_FALSE(f.initialized());
  f.update(2.0);
  EXPECT_TRUE(f.initialized());
  f.reset();
  EXPECT_FALSE(f.initialized());
}

TEST(HoltFilter, RejectsBadSmoothingFactors) {
  EXPECT_THROW((predict::HoltFilter{0.0, 0.3}), std::invalid_argument);
  EXPECT_THROW((predict::HoltFilter{0.5, 1.0001}), std::invalid_argument);
}

// --- HandoverPredictor ---

// Declining margin at -1 dB per 100 ms tick, starting at `start_db`.
void feed_decline(predict::HandoverPredictor& p, double start_db, int ticks,
                  std::int64_t t0_ms = 0) {
  for (int i = 0; i < ticks; ++i) {
    p.on_margin(at_ms(t0_ms + 100 * i), start_db - i);
  }
}

TEST(HandoverPredictor, ArmsOnDecayAndScoresTruePositiveWithLeadTime) {
  predict::HandoverPredictor p;  // hysteresis 3, guard 0.5, forecast 8 steps
  // Margin 6, 5: at the second tick the trend (-1/step) projects
  // 5 - 8 = -3 past the -2.5 dB trigger line -> armed.
  feed_decline(p, 6.0, 2);
  EXPECT_TRUE(p.armed(at_ms(100)));
  EXPECT_GT(p.confidence(), 0.0);
  p.on_handover(at_ms(500), Duration::millis(300));
  p.finish();
  EXPECT_EQ(p.predicted(), 1u);
  EXPECT_EQ(p.true_positives(), 1u);
  EXPECT_EQ(p.false_positives(), 0u);
  EXPECT_EQ(p.missed(), 0u);
  ASSERT_EQ(p.lead_times_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(p.lead_times_ms()[0], 400.0);  // armed at 100 ms, HO at 500
}

TEST(HandoverPredictor, HorizonExpiryScoresFalsePositive) {
  predict::HandoverPredictor p;
  feed_decline(p, 6.0, 2);  // armed at t=100 ms, horizon 2500 ms
  ASSERT_TRUE(p.armed(at_ms(100)));
  // The margin recovers and the horizon passes without a handover; the next
  // measurement tick retires the armed prediction as a false positive.
  p.on_margin(at_ms(2700), 12.0);
  EXPECT_FALSE(p.armed(at_ms(2700)));
  p.finish();
  EXPECT_EQ(p.true_positives(), 0u);
  EXPECT_EQ(p.false_positives(), 1u);
  EXPECT_EQ(p.missed(), 0u);
}

TEST(HandoverPredictor, UnpredictedHandoverScoresMissed) {
  predict::HandoverPredictor p;
  for (int i = 0; i < 10; ++i) p.on_margin(at_ms(100 * i), 10.0);
  EXPECT_FALSE(p.armed(at_ms(900)));
  p.on_handover(at_ms(1000), Duration::millis(200));
  p.finish();
  EXPECT_EQ(p.predicted(), 0u);
  EXPECT_EQ(p.missed(), 1u);
  EXPECT_TRUE(p.lead_times_ms().empty());
}

TEST(HandoverPredictor, NoHandoverRunStaysClean) {
  predict::HandoverPredictor p;
  for (int i = 0; i < 100; ++i) p.on_margin(at_ms(100 * i), 9.0 + (i % 2));
  p.finish();
  EXPECT_EQ(p.predicted(), 0u);
  EXPECT_EQ(p.true_positives(), 0u);
  EXPECT_EQ(p.false_positives(), 0u);
  EXPECT_EQ(p.missed(), 0u);
}

TEST(HandoverPredictor, FinishDropsUnresolvedArmedPrediction) {
  predict::HandoverPredictor p;
  feed_decline(p, 6.0, 2);
  ASSERT_TRUE(p.armed(at_ms(100)));
  p.finish();  // run ends with the horizon still open: scored neither way
  EXPECT_EQ(p.predicted(), 0u);
  EXPECT_EQ(p.true_positives(), 0u);
  EXPECT_EQ(p.false_positives(), 0u);
}

TEST(HandoverPredictor, BackToBackHandoversSuppressedDuringHet) {
  predict::HandoverPredictor p;
  feed_decline(p, 6.0, 2);
  p.on_handover(at_ms(300), Duration::millis(1000));  // TP; margin undefined
  // Steep decay inside the HET window must not re-arm: the bearer is already
  // moving and the filter was reset.
  feed_decline(p, 2.0, 5, /*t0_ms=*/400);
  EXPECT_FALSE(p.armed(at_ms(800)));
  // A second handover lands before the predictor could re-arm -> missed.
  p.on_handover(at_ms(1000), Duration::millis(300));
  p.finish();
  EXPECT_EQ(p.true_positives(), 1u);
  EXPECT_EQ(p.missed(), 1u);
  EXPECT_EQ(p.false_positives(), 0u);
}

// --- CapacityForecaster ---

TEST(CapacityForecaster, ConstantCapacityForecastsExactlyWithZeroMae) {
  predict::CapacityForecaster f;
  for (int i = 0; i < 30; ++i) f.on_sample(20.0);
  EXPECT_TRUE(f.ready());
  EXPECT_NEAR(f.forecast_mbps(), 20.0, 1e-9);
  // First scorable sample is the third (the filter needs two to initialize).
  EXPECT_EQ(f.samples_scored(), 28u);
  EXPECT_NEAR(f.mae_mbps(), 0.0, 1e-9);
}

TEST(CapacityForecaster, ForecastIsFlooredOnCollapse) {
  predict::CapacityForecaster f;  // floor 0.5 Mbps, forecast 5 steps
  for (double c = 5.0; c >= 1.0; c -= 1.0) f.on_sample(c);
  // Trend -1/step projects 1 - 5 = -4 Mbps; the floor keeps it actionable.
  EXPECT_DOUBLE_EQ(f.forecast_mbps(), 0.5);
}

TEST(CapacityForecaster, NotReadyBeforeTwoSamplesAndReportsFloor) {
  predict::CapacityForecaster f;
  EXPECT_FALSE(f.ready());
  EXPECT_DOUBLE_EQ(f.forecast_mbps(), 0.5);
  EXPECT_EQ(f.samples_scored(), 0u);
  EXPECT_DOUBLE_EQ(f.mae_mbps(), 0.0);
}

// --- ProactiveAdapter ---

obs::MeasurementPayload measurement(double margin_db,
                                    double capacity_mbps = 20.0) {
  obs::MeasurementPayload m;
  m.serving_rsrp_dbm = -90.0 + margin_db;
  m.neighbor_rsrp_dbm = -90.0;
  m.capacity_mbps = capacity_mbps;
  return m;
}

TEST(ProactiveAdapter, ReactiveModeObservesButNeverActs) {
  predict::ProactiveAdapter a;  // proactive defaults to false
  EXPECT_FALSE(a.proactive());
  for (int i = 0; i < 2; ++i) {
    a.on_link_measurement(at_ms(100 * i), measurement(6.0 - i));
  }
  // The predictor armed (observation), but every policy hook stays inert.
  EXPECT_TRUE(a.ho_imminent(at_ms(100)));
  EXPECT_EQ(a.bitrate_cap_bps(at_ms(100)),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(a.defer_keyframe(at_ms(100)));
  auto ho = measurement(4.0);
  ho.ho_triggered = true;
  ho.in_handover = true;
  ho.het_us = 300'000;
  a.on_link_measurement(at_ms(200), ho);
  EXPECT_FALSE(a.should_flush(at_ms(600), 500.0));
  a.finish();
  const auto s = a.stats();
  EXPECT_TRUE(s.enabled);
  EXPECT_FALSE(s.proactive);
  EXPECT_EQ(s.ho_true_positives, 1u);
  EXPECT_EQ(s.dip_windows, 0u);
  EXPECT_EQ(s.proactive_flushes, 0u);
}

TEST(ProactiveAdapter, ProactiveDipCapsBitrateAndDefersKeyframes) {
  predict::ProactiveConfig cfg;
  cfg.proactive = true;
  predict::ProactiveAdapter a{cfg};
  for (int i = 0; i < 2; ++i) {
    a.on_link_measurement(at_ms(100 * i), measurement(6.0 - i));
  }
  ASSERT_TRUE(a.ho_imminent(at_ms(100)));
  // Cap = dip_factor (0.7) x forecast (20 Mbps steady capacity), above the
  // 2 Mbps floor.
  EXPECT_NEAR(a.bitrate_cap_bps(at_ms(100)), 0.7 * 20e6, 1e-3);
  EXPECT_TRUE(a.defer_keyframe(at_ms(100)));
  EXPECT_EQ(a.stats().dip_windows, 1u);
}

TEST(ProactiveAdapter, PostHandoverFlushFiresOnceWhenBacklogIsDeep) {
  predict::ProactiveConfig cfg;
  cfg.proactive = true;
  predict::ProactiveAdapter a{cfg};
  for (int i = 0; i < 2; ++i) {
    a.on_link_measurement(at_ms(100 * i), measurement(6.0 - i));
  }
  auto ho = measurement(-4.0);
  ho.ho_triggered = true;
  ho.in_handover = true;
  ho.het_us = 400'000;  // bearer back at t = 600 ms
  a.on_link_measurement(at_ms(200), ho);
  // Still interrupted: no flush yet.
  EXPECT_FALSE(a.should_flush(at_ms(500), 300.0));
  // Bearer back with a shallow queue: the opportunity is spent without a flush.
  EXPECT_FALSE(a.should_flush(at_ms(650), 50.0));
  EXPECT_FALSE(a.should_flush(at_ms(700), 500.0));
  EXPECT_EQ(a.stats().proactive_flushes, 0u);

  // Next handover re-arms the flush; a deep queue then flushes exactly once.
  auto ho2 = measurement(-4.0);
  ho2.ho_triggered = true;
  ho2.in_handover = true;
  ho2.het_us = 200'000;
  a.on_link_measurement(at_ms(2000), ho2);
  EXPECT_TRUE(a.should_flush(at_ms(2300), 300.0));
  EXPECT_FALSE(a.should_flush(at_ms(2400), 300.0));
  EXPECT_EQ(a.stats().proactive_flushes, 1u);
}

TEST(ProactiveAdapter, MissingNeighborRelaxesTheMarginFilter) {
  predict::ProactiveConfig cfg;
  cfg.proactive = true;
  predict::ProactiveAdapter a{cfg};
  // Serving RSRP decays but no neighbor is measured (-200 sentinel): the
  // adapter must not arm off a margin against nothing.
  for (int i = 0; i < 10; ++i) {
    obs::MeasurementPayload m;
    m.serving_rsrp_dbm = -90.0 - 2.0 * i;
    m.capacity_mbps = 20.0;  // neighbor_rsrp_dbm stays at the sentinel
    a.on_link_measurement(at_ms(100 * i), m);
  }
  EXPECT_FALSE(a.ho_imminent(at_ms(900)));
  EXPECT_EQ(a.stats().ho_predicted, 0u);
}

// --- Prediction block through report JSON ---

TEST(PredictionJson, PredictionBlockRoundTripsByteStably) {
  pipeline::SessionReport r;
  r.prediction.enabled = true;
  r.prediction.proactive = true;
  r.prediction.ho_predicted = 7;
  r.prediction.ho_true_positives = 5;
  r.prediction.ho_false_positives = 2;
  r.prediction.ho_missed = 1;
  r.prediction.ho_lead_time_ms = {812.5, 1300.0, 400.0};
  r.prediction.capacity_mae_mbps = 1.75;
  r.prediction.capacity_samples = 1234;
  r.prediction.dip_windows = 6;
  r.prediction.keyframes_deferred = 3;
  r.prediction.proactive_flushes = 4;
  r.prediction.predictive_switches = 2;
  r.stall_duration_ms = {120.0, 944.0};

  const std::string bytes = pipeline::report_to_json(r).dump();
  const auto back = pipeline::report_from_json(json::parse(bytes));
  EXPECT_EQ(pipeline::report_to_json(back).dump(), bytes);
  EXPECT_TRUE(back.prediction.proactive);
  EXPECT_EQ(back.prediction.ho_true_positives, 5u);
  EXPECT_EQ(back.prediction.ho_lead_time_ms, r.prediction.ho_lead_time_ms);
  EXPECT_EQ(back.prediction.capacity_samples, 1234u);
  EXPECT_EQ(back.stall_duration_ms, r.stall_duration_ms);
  EXPECT_DOUBLE_EQ(back.prediction.precision(), 5.0 / 7.0);
  EXPECT_DOUBLE_EQ(back.prediction.recall(), 5.0 / 6.0);
}

// --- Predictive failover in multipath kFailover mode ---

TEST(PredictMultipath, ProactiveFailoverSwitchesBeforeLinkDown) {
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;  // HO-dense: many predicted windows
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 61;
  s.policy = experiment::Policy::kProactive;
  auto rng = experiment::scenario_rng(s.seed);
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(experiment::make_layout(s, rng));
  experiment::Scenario s2 = s;
  s2.env = experiment::Environment::kRuralP1;
  layouts.push_back(experiment::make_layout(s2, rng));
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  pipeline::Session mp{cfg, std::move(layouts), &traj, "predict-failover",
                       bond::Policy::kFailover};
  const auto r = mp.run();
  EXPECT_TRUE(r.prediction.proactive);
  // The primary-side adapter predicted handovers and moved traffic to the
  // secondary before the primary actually went down at least once.
  EXPECT_GT(r.prediction.predictive_switches, 0u);
  EXPECT_GT(r.bond_path_switches, 0u);
}

// --- Proactive campaign determinism across worker counts ---

TEST(PredictDeterminism, ProactiveRunsAreByteIdenticalAcrossJobs) {
  experiment::Campaign c;
  c.scenario.env = experiment::Environment::kUrban;
  c.scenario.cc = pipeline::CcKind::kGcc;
  c.scenario.policy = experiment::Policy::kProactive;
  c.scenario.seed = 4242;
  c.runs = 2;

  auto bytes_for = [&](int jobs) {
    std::vector<std::string> out;
    for (const auto& r : exec::CampaignEngine{{.jobs = jobs}}.run(c).reports) {
      out.push_back(pipeline::report_to_json(r).dump());
    }
    return out;
  };
  const auto serial = bytes_for(1);
  ASSERT_EQ(serial.size(), 2u);
  const auto parallel = bytes_for(8);
  EXPECT_EQ(serial, parallel);
  // The urban flight actually exercises the subsystem: the report must carry
  // predictor activity, not just zeros.
  const auto r = pipeline::report_from_json(json::parse(serial[0]));
  EXPECT_TRUE(r.prediction.enabled);
  EXPECT_TRUE(r.prediction.proactive);
  EXPECT_GT(r.prediction.ho_predicted + r.prediction.ho_missed, 0u);
  EXPECT_GT(r.prediction.capacity_samples, 0u);
}

}  // namespace
}  // namespace rpv
