// End-to-end session invariants: every CC over both environments, checking
// the conservation and sanity properties that must hold regardless of seed.
#include "experiment/scenario.hpp"

#include "metrics/cdf.hpp"
#include <algorithm>

#include <gtest/gtest.h>

namespace rpv::experiment {
namespace {

pipeline::SessionReport run(Environment env, pipeline::CcKind cc,
                            std::uint64_t seed = 5) {
  Scenario s;
  s.env = env;
  s.cc = cc;
  s.seed = seed;
  return run_scenario(s);
}

class SessionCcTest
    : public ::testing::TestWithParam<std::tuple<Environment, pipeline::CcKind>> {};

TEST_P(SessionCcTest, CoreInvariants) {
  const auto [env, cc] = GetParam();
  const auto r = run(env, cc);

  // Frame conservation: played frames never exceed encoded.
  EXPECT_LE(r.frames_played, r.frames_encoded);
  EXPECT_GT(r.frames_encoded, 9000u);  // ~30 fps over the ~5.6 min flight
  EXPECT_GT(r.frames_played, r.frames_encoded * 8 / 10);

  // Packet conservation.
  EXPECT_LE(r.packets_received, r.packets_sent);
  EXPECT_GE(r.per, 0.0);
  EXPECT_LT(r.per, 0.05);

  // One-way delay can never undercut access + WAN propagation.
  ASSERT_FALSE(r.owd_ms.empty());
  EXPECT_GT(r.owd_ms.min(), 15.0);

  // Playback latency at least the jitter-buffer depth.
  ASSERT_FALSE(r.playback_latency_ms.empty());
  EXPECT_GT(r.playback_latency_ms.min(), 150.0);

  // SSIM samples in [0, 1].
  ASSERT_FALSE(r.ssim.empty());
  EXPECT_GE(r.ssim.min(), 0.0);
  EXPECT_LE(r.ssim.max(), 1.0);

  // Goodput below the physical ceiling.
  for (const double g : r.goodput_mbps_windows) {
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, 51.0);
  }

  // Handovers happened in the air and the log is consistent.
  EXPECT_GT(r.handovers.count(), 0u);
  EXPECT_EQ(r.handovers.het_ms().size(), r.handovers.count());
  EXPECT_GT(r.cells_seen, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SessionCcTest,
    ::testing::Combine(::testing::Values(Environment::kUrban,
                                         Environment::kRuralP1,
                                         Environment::kRuralP2),
                       ::testing::Values(pipeline::CcKind::kStatic,
                                         pipeline::CcKind::kGcc,
                                         pipeline::CcKind::kScream)),
    [](const auto& info) {
      std::string name = environment_name(std::get<0>(info.param)) + "_" +
                         pipeline::cc_name(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Session, DeterministicForSeed) {
  const auto a = run(Environment::kUrban, pipeline::CcKind::kGcc, 33);
  const auto b = run(Environment::kUrban, pipeline::CcKind::kGcc, 33);
  EXPECT_EQ(a.frames_played, b.frames_played);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_DOUBLE_EQ(a.avg_goodput_mbps, b.avg_goodput_mbps);
  EXPECT_EQ(a.handovers.count(), b.handovers.count());
}

TEST(Session, SeedsProduceVariation) {
  const auto a = run(Environment::kUrban, pipeline::CcKind::kGcc, 1);
  const auto b = run(Environment::kUrban, pipeline::CcKind::kGcc, 2);
  EXPECT_NE(a.packets_sent, b.packets_sent);
}

TEST(Session, StaticUsesPaperBitrates) {
  const auto urban = run(Environment::kUrban, pipeline::CcKind::kStatic);
  EXPECT_NEAR(urban.avg_goodput_mbps, 25.0, 3.0);
  const auto rural = run(Environment::kRuralP1, pipeline::CcKind::kStatic);
  EXPECT_NEAR(rural.avg_goodput_mbps, 8.0, 1.5);
}

TEST(Session, AdaptiveRampsFromLowRate) {
  const auto r = run(Environment::kUrban, pipeline::CcKind::kGcc);
  // The first high is the first frame's target.
  ASSERT_FALSE(r.target_bitrate_highs_bps.empty());
  EXPECT_LT(r.target_bitrate_highs_bps.samples().front().value, 3e6);
  const double ramp = r.ramp_up_seconds(20e6);
  EXPECT_GT(ramp, 2.0);
  EXPECT_LT(ramp, 60.0);
}

TEST(Session, ScreamDiscardsOnlyWithScream) {
  const auto scream = run(Environment::kUrban, pipeline::CcKind::kScream);
  const auto gcc = run(Environment::kUrban, pipeline::CcKind::kGcc);
  EXPECT_EQ(gcc.queue_discard_events, 0u);
  EXPECT_GT(scream.queue_discard_events, 0u);
  EXPECT_GT(scream.scream_misloss_packets, 0u);
}

TEST(Session, ProbeModeMeasuresRtt) {
  Scenario s;
  s.env = Environment::kUrban;
  s.cc = pipeline::CcKind::kNone;
  s.probe_interval = sim::Duration::millis(100);
  s.seed = 9;
  const auto r = run_scenario(s);
  EXPECT_GT(r.rtt_by_altitude.size(), 1000u);
  for (const auto& [alt, rtt] : r.rtt_by_altitude) {
    EXPECT_GE(alt, 0.0);
    EXPECT_LE(alt, 121.0);
    EXPECT_GT(rtt, 30.0);  // paper min RTT ~35 ms
    EXPECT_LT(rtt, 10'000.0);
  }
  EXPECT_EQ(r.frames_encoded, 0u);
}

TEST(Session, GroundRunsSeeFewerHandovers) {
  Scenario air;
  air.env = Environment::kUrban;
  air.cc = pipeline::CcKind::kNone;
  air.probe_interval = sim::Duration::millis(200);
  air.seed = 21;
  Scenario grd = air;
  grd.mobility = Mobility::kGround;
  double air_freq = 0.0, grd_freq = 0.0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    air.seed = 21 + k;
    grd.seed = 21 + k;
    const auto a = run_scenario(air);
    const auto g = run_scenario(grd);
    air_freq += a.handovers.frequency(a.duration);
    grd_freq += g.handovers.frequency(g.duration);
  }
  EXPECT_GT(air_freq, 2.0 * grd_freq);
}

TEST(Session, HoLatencyRatiosComputed) {
  const auto r = run(Environment::kUrban, pipeline::CcKind::kGcc);
  ASSERT_EQ(r.handover_owd_ms.size(), r.handovers.count());
  const auto ratios = metrics::latency_ratios(r.handover_owd_ms);
  EXPECT_FALSE(ratios.empty());
  for (const auto& lr : ratios) {
    EXPECT_GE(lr.before, 1.0);
    EXPECT_GE(lr.after, 1.0);
  }
}

TEST(Session, DropOnLatencyReducesLatePlayback) {
  Scenario base;
  base.env = Environment::kUrban;
  base.cc = pipeline::CcKind::kScream;
  base.seed = 15;
  const auto normal = run_scenario(base);
  Scenario dol = base;
  dol.drop_on_latency = true;
  const auto dropped = run_scenario(dol);
  const auto& n = normal.playback_latency_ms;
  const auto& d = dropped.playback_latency_ms;
  // Appendix A.4: dropping late frames improves the high latency quantiles.
  EXPECT_LT(d.quantile(0.95), n.quantile(0.95) * 1.05);
}

}  // namespace
}  // namespace rpv::experiment
