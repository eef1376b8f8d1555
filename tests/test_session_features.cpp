// Session-level tests for the C2 channel, FEC integration, and the 5G-SA
// access-technology preset.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "metrics/cdf.hpp"

namespace rpv::experiment {
namespace {

TEST(C2, CommandsAndTelemetryFlow) {
  Scenario s;
  s.env = Environment::kUrban;
  s.cc = pipeline::CcKind::kStatic;
  s.c2 = true;
  s.seed = 61;
  const auto r = run_scenario(s);
  EXPECT_GT(r.commands_sent, 5000u);   // 20 Hz over ~5.6 min
  EXPECT_GT(r.telemetry_sent, 2500u);  // 10 Hz
  EXPECT_GT(r.command_latency_ms.count(), r.commands_sent * 9 / 10);
  EXPECT_GT(r.telemetry_latency_ms.count(), r.telemetry_sent * 9 / 10);
}

TEST(C2, CommandLatencyWellBelowVideo) {
  Scenario s;
  s.env = Environment::kUrban;
  s.cc = pipeline::CcKind::kStatic;
  s.c2 = true;
  s.seed = 62;
  const auto r = run_scenario(s);
  const auto& cmd = r.command_latency_ms;
  const auto& vid = r.owd_ms;
  // Related work [34][51][61]: control latency is far below video latency,
  // especially in the tail (the video shares the bloated uplink queue).
  EXPECT_LT(cmd.quantile(0.99), vid.quantile(0.99));
  EXPECT_LT(cmd.median(), 60.0);
}

TEST(C2, TelemetrySharesUplinkQueueWithVideo) {
  Scenario with_video;
  with_video.env = Environment::kUrban;
  with_video.cc = pipeline::CcKind::kStatic;
  with_video.c2 = true;
  with_video.seed = 63;
  Scenario without = with_video;
  without.cc = pipeline::CcKind::kNone;
  const auto loaded = run_scenario(with_video).telemetry_latency_ms;
  const auto idle = run_scenario(without).telemetry_latency_ms;
  EXPECT_GT(loaded.quantile(0.99), idle.quantile(0.99));
}

TEST(C2, DisabledByDefault) {
  Scenario s;
  s.env = Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 64;
  const auto r = run_scenario(s);
  EXPECT_EQ(r.commands_sent, 0u);
  EXPECT_TRUE(r.command_latency_ms.empty());
}

TEST(FecSession, ReducesCorruptedFramesUnderLoss) {
  double plain = 0.0, fec = 0.0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    Scenario s;
    s.env = Environment::kUrban;  // altitude loss lives here
    s.cc = pipeline::CcKind::kGcc;
    s.seed = 71 + k;
    plain += static_cast<double>(run_scenario(s).frames_corrupted);
    s.fec_group_size = 10;
    fec += static_cast<double>(run_scenario(s).frames_corrupted);
  }
  EXPECT_LT(fec, plain);
}

TEST(FecSession, OverheadVisibleInPacketCount) {
  Scenario s;
  s.env = Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 72;
  const auto plain = run_scenario(s);
  s.fec_group_size = 10;
  const auto fec = run_scenario(s);
  // ~10% more packets on the wire.
  EXPECT_GT(fec.packets_sent, plain.packets_sent + plain.packets_sent / 20);
}

TEST(FiveG, ShortensLatencyTail) {
  metrics::Cdf lte, nr;
  for (std::uint64_t k = 0; k < 3; ++k) {
    Scenario s;
    s.env = Environment::kUrban;
    s.cc = pipeline::CcKind::kStatic;
    s.seed = 81 + k;
    lte.merge(run_scenario(s).owd_ms);
    s.tech = AccessTech::k5gSa;
    nr.merge(run_scenario(s).owd_ms);
  }
  EXPECT_LT(nr.median(), lte.median());
  EXPECT_LT(nr.quantile(0.99), lte.quantile(0.99) * 0.7);
}

TEST(FiveG, FewerStalls) {
  double lte = 0.0, nr = 0.0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    Scenario s;
    s.env = Environment::kUrban;
    s.cc = pipeline::CcKind::kGcc;
    s.seed = 85 + k;
    lte += run_scenario(s).stalls_per_minute;
    s.tech = AccessTech::k5gSa;
    nr += run_scenario(s).stalls_per_minute;
  }
  EXPECT_LE(nr, lte);
}

TEST(FiveG, StillRecordsHandovers) {
  Scenario s;
  s.env = Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.tech = AccessTech::k5gSa;
  s.seed = 88;
  const auto r = run_scenario(s);
  EXPECT_GT(r.handovers.count(), 0u);  // mobility still happens, just seamless
}

}  // namespace
}  // namespace rpv::experiment
