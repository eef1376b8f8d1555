// Tests for the data-collection fidelity pieces: the per-packet event stream
// (tcpdump analogue), bootstrap confidence intervals, and the RP QoE score.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "metrics/bootstrap.hpp"
#include "obs/metrics_registry.hpp"
#include "pipeline/session.hpp"
#include "pipeline/qoe.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

// --- Per-packet events (tcpdump analogue) ---

// Every packet a session delivers or loses is an event on its bus, so a
// MetricsRegistry tapped in through run_scenario(s, sink) reconciles against
// the report's counters.
TEST(PacketEvents, SessionStreamConsistentWithCounters) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 56;
  obs::MetricsRegistry registry;
  const auto r = experiment::run_scenario(s, &registry);
  auto total = [&](obs::EventKind kind) {
    std::uint64_t n = 0;
    for (int c = 0; c < obs::kComponentCount; ++c) {
      n += registry.count(static_cast<obs::Component>(c), kind);
    }
    return n;
  };
  // Deliveries match the report's accounting (small slack for feedback-path
  // events); radio/buffer losses and WAN drops are counted apart, exactly.
  EXPECT_NEAR(static_cast<double>(total(obs::EventKind::kPacketReceived)),
              static_cast<double>(r.packets_received), 5.0);
  EXPECT_EQ(total(obs::EventKind::kPacketLost), r.radio_losses + r.buffer_drops);
  EXPECT_EQ(total(obs::EventKind::kWanDrop), r.wan_drops);
}

// --- Bootstrap CI ---

TEST(Bootstrap, EmptyAndSingleton) {
  const auto empty = metrics::bootstrap_mean_ci({});
  EXPECT_EQ(empty.mean, 0.0);
  const auto one = metrics::bootstrap_mean_ci({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.lo, 7.0);
  EXPECT_DOUBLE_EQ(one.hi, 7.0);
}

TEST(Bootstrap, CoversTheMean) {
  std::vector<double> xs;
  sim::Rng rng{12};
  for (int i = 0; i < 50; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const auto ci = metrics::bootstrap_mean_ci(xs);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  EXPECT_NEAR(ci.mean, 10.0, 1.0);
  // Width roughly 2 * 1.96 * sigma/sqrt(n) ~ 1.1.
  EXPECT_LT(ci.hi - ci.lo, 2.5);
  EXPECT_GT(ci.hi - ci.lo, 0.3);
}

TEST(Bootstrap, DeterministicForSeed) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
  const auto a = metrics::bootstrap_mean_ci(xs, 0.95, 500, 42);
  const auto b = metrics::bootstrap_mean_ci(xs, 0.95, 500, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

// --- QoE ---

pipeline::SessionReport synthetic_report(double ssim, double latency_ms,
                                         double stalls_per_min) {
  pipeline::SessionReport r;
  for (int i = 0; i < 1000; ++i) {
    r.ssim.add(ssim);
    r.playback_latency_ms.add(latency_ms);
  }
  r.stalls_per_minute = stalls_per_min;
  return r;
}

TEST(Qoe, PerfectSessionScoresHigh) {
  const auto q = pipeline::score_qoe(synthetic_report(0.97, 180.0, 0.0));
  EXPECT_GT(q.mos, 4.5);
}

TEST(Qoe, FrozenPictureScoresLow) {
  const auto q = pipeline::score_qoe(synthetic_report(0.97, 180.0, 20.0));
  EXPECT_LT(q.mos, 2.0);
}

TEST(Qoe, LaggyPlaybackScoresLow) {
  const auto q = pipeline::score_qoe(synthetic_report(0.97, 900.0, 0.0));
  EXPECT_LT(q.mos, 2.0);
}

TEST(Qoe, BlurryPictureDegrades) {
  const auto sharp = pipeline::score_qoe(synthetic_report(0.95, 180.0, 0.0));
  const auto blurry = pipeline::score_qoe(synthetic_report(0.55, 180.0, 0.0));
  EXPECT_GT(sharp.mos, blurry.mos + 0.5);
}

TEST(Qoe, EmptyReportIsFloor) {
  const auto q = pipeline::score_qoe(pipeline::SessionReport{});
  EXPECT_DOUBLE_EQ(q.mos, 1.0);
}

TEST(Qoe, RealSessionInRange) {
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 57;
  const auto q = pipeline::score_qoe(experiment::run_scenario(s));
  EXPECT_GE(q.mos, 1.0);
  EXPECT_LE(q.mos, 5.0);
  EXPECT_GT(q.mos, 2.0);  // GCC urban is a usable configuration
}

}  // namespace
}  // namespace rpv
