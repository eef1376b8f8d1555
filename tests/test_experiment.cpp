#include "experiment/runner.hpp"

#include "exec/campaign_engine.hpp"

#include <gtest/gtest.h>

namespace rpv::experiment {
namespace {

TEST(Scenario, Names) {
  EXPECT_EQ(environment_name(Environment::kUrban), "urban");
  EXPECT_EQ(environment_name(Environment::kRuralP1), "rural-p1");
  EXPECT_EQ(environment_name(Environment::kRuralP2), "rural-p2");
  EXPECT_EQ(mobility_name(Mobility::kAir), "air");
  EXPECT_EQ(mobility_name(Mobility::kGround), "ground");
}

// The AQM and DAPS ablation arms are not filed under their baseline's label.
TEST(Scenario, LabelNamesAqmAndDaps) {
  Scenario s;
  s.fault_preset = FaultPreset::kRlfStorm;
  EXPECT_EQ(scenario_label(s), "urban-air-gcc-rlf-storm");
  s.aqm = true;
  EXPECT_EQ(scenario_label(s), "urban-air-gcc-rlf-storm-aqm");
  s.daps = true;
  EXPECT_EQ(scenario_label(s), "urban-air-gcc-rlf-storm-aqm-daps");
  s.aqm = false;
  EXPECT_EQ(scenario_label(s), "urban-air-gcc-rlf-storm-daps");
}

TEST(Scenario, StaticBitratesMatchPaper) {
  EXPECT_DOUBLE_EQ(static_bitrate_bps(Environment::kUrban), 25e6);
  EXPECT_DOUBLE_EQ(static_bitrate_bps(Environment::kRuralP1), 8e6);
  EXPECT_DOUBLE_EQ(static_bitrate_bps(Environment::kRuralP2), 8e6);
}

TEST(Scenario, AqmAndDapsToggleTheLinkConfig) {
  Scenario s;
  auto cfg = make_session_config(s);
  EXPECT_FALSE(cfg.link.queue.aqm_enabled);
  EXPECT_FALSE(cfg.link.handover.make_before_break);
  s.aqm = true;
  s.daps = true;
  cfg = make_session_config(s);
  EXPECT_TRUE(cfg.link.queue.aqm_enabled);
  EXPECT_TRUE(cfg.link.handover.make_before_break);
  // 5G SA hands over make-before-break with or without the toggle.
  s.daps = false;
  s.tech = AccessTech::k5gSa;
  EXPECT_TRUE(make_session_config(s).link.handover.make_before_break);
}

TEST(Scenario, EqualityComparesEveryFieldIncludingFaults) {
  Scenario a, b;
  EXPECT_TRUE(a == b);
  b.daps = true;
  EXPECT_FALSE(a == b);
  b.daps = false;
  b.faults.rlf(60.0);
  EXPECT_FALSE(a == b);
  a.faults.rlf(60.0);
  EXPECT_TRUE(a == b);
  b.seed = a.seed + 1;
  EXPECT_FALSE(a == b);
}

TEST(Scenario, SessionConfigFollowsEnvironment) {
  Scenario urban;
  urban.env = Environment::kUrban;
  Scenario rural;
  rural.env = Environment::kRuralP1;
  const auto u = make_session_config(urban);
  const auto r = make_session_config(rural);
  EXPECT_GT(u.link.radio.peak_capacity_mbps, 2.0 * r.link.radio.peak_capacity_mbps);
  EXPECT_GT(u.static_bitrate_bps, r.static_bitrate_bps);
}

TEST(Scenario, P2HasMoreRuralCapacityThanP1) {
  Scenario p1;
  p1.env = Environment::kRuralP1;
  Scenario p2;
  p2.env = Environment::kRuralP2;
  EXPECT_GT(make_session_config(p2).link.radio.peak_capacity_mbps,
            make_session_config(p1).link.radio.peak_capacity_mbps);
  sim::Rng rng{1};
  EXPECT_GT(make_layout(p2, rng).size(), make_layout(p1, rng).size());
}

TEST(Scenario, AckWindowOverrideReachesReceiver) {
  Scenario s;
  s.rfc8888_ack_window = 64;
  EXPECT_EQ(make_session_config(s).receiver.rfc8888_ack_window, 64);
}

// The config a scenario maps to holds the feedback and queue discard its
// session runs with, so readers need not build the session to see them.
TEST(Scenario, SessionConfigCarriesTheCcSettingsItsSessionRuns) {
  using pipeline::CcKind;
  using pipeline::FeedbackKind;
  struct Want {
    CcKind cc;
    FeedbackKind feedback;
    std::int64_t discard_ms;
  };
  for (const Want w : {Want{CcKind::kGcc, FeedbackKind::kTwcc, -1},
                       Want{CcKind::kScream, FeedbackKind::kRfc8888, 100},
                       Want{CcKind::kStatic, FeedbackKind::kNone, -1},
                       Want{CcKind::kNone, FeedbackKind::kTwcc, -1}}) {
    Scenario s;
    s.cc = w.cc;
    const auto cfg = make_session_config(s);
    EXPECT_EQ(cfg.receiver.feedback, w.feedback) << pipeline::cc_name(w.cc);
    EXPECT_EQ(cfg.sender.discard_queue, sim::Duration::millis(w.discard_ms))
        << pipeline::cc_name(w.cc);
  }
}

TEST(Scenario, TrajectoryMatchesMobility) {
  sim::Rng rng{1};
  Scenario air;
  air.mobility = Mobility::kAir;
  double max_alt = 0.0;
  const auto t = make_trajectory(air, rng);
  for (auto tp = t.start(); tp < t.end(); tp += sim::Duration::seconds(1.0)) {
    max_alt = std::max(max_alt, t.altitude(tp));
  }
  EXPECT_NEAR(max_alt, 120.0, 1.0);

  Scenario ground;
  ground.mobility = Mobility::kGround;
  const auto g = make_trajectory(ground, rng);
  for (auto tp = g.start(); tp < g.end(); tp += sim::Duration::seconds(1.0)) {
    EXPECT_LT(g.altitude(tp), 2.0);
  }
}

TEST(Runner, CampaignRunsRequestedCount) {
  Campaign c;
  c.scenario.env = Environment::kRuralP1;
  c.scenario.cc = pipeline::CcKind::kStatic;
  c.runs = 3;
  const auto rs = exec::CampaignEngine{}.run(c).reports;
  EXPECT_EQ(rs.size(), 3u);
  // Distinct seeds produce distinct runs.
  EXPECT_NE(rs[0].packets_sent, rs[1].packets_sent);
}

TEST(Runner, PoolingConcatenatesSamples) {
  Campaign c;
  c.scenario.env = Environment::kRuralP1;
  c.scenario.cc = pipeline::CcKind::kStatic;
  c.runs = 2;
  const auto rs = exec::CampaignEngine{}.run(c).reports;
  const auto owd = pool_owd(rs);
  EXPECT_EQ(owd.count(), rs[0].owd_ms.count() + rs[1].owd_ms.count());
  const auto fps = pool_fps(rs);
  EXPECT_EQ(fps.count(), rs[0].fps_windows.size() + rs[1].fps_windows.size());
  EXPECT_EQ(pool_het(rs).size(),
            rs[0].handovers.count() + rs[1].handovers.count());
  EXPECT_EQ(pool_ho_frequency(rs).size(), 2u);
}

TEST(Runner, MeanHelpers) {
  Campaign c;
  c.scenario.env = Environment::kRuralP1;
  c.scenario.cc = pipeline::CcKind::kStatic;
  c.runs = 2;
  const auto rs = exec::CampaignEngine{}.run(c).reports;
  const double mean_per = (rs[0].per + rs[1].per) / 2.0;
  EXPECT_DOUBLE_EQ(experiment::mean_per(rs), mean_per);
  EXPECT_GE(mean_stalls_per_minute(rs), 0.0);
}

TEST(Runner, RttBandFiltering) {
  Campaign c;
  c.scenario.env = Environment::kUrban;
  c.scenario.cc = pipeline::CcKind::kNone;
  c.scenario.probe_interval = sim::Duration::millis(200);
  c.runs = 1;
  const auto rs = exec::CampaignEngine{}.run(c).reports;
  const auto low = pool_rtt_in_band(rs, 0.0, 20.0);
  const auto high = pool_rtt_in_band(rs, 101.0, 140.0);
  EXPECT_GT(low.count(), 0u);
  EXPECT_GT(high.count(), 0u);
  const auto all = pool_rtt_in_band(rs, 0.0, 1e9);
  EXPECT_EQ(all.count(), rs[0].rtt_by_altitude.size());
}

}  // namespace
}  // namespace rpv::experiment
