// Tests for the Section 5 extension features: DAPS make-before-break
// handover, CoDel-style AQM on the uplink queue, and multipath duplication.
#include <gtest/gtest.h>

#include "cellular/link_queue.hpp"
#include "experiment/scenario.hpp"
#include "metrics/cdf.hpp"
#include "pipeline/session.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

// --- CoDel AQM ---

struct AqmFixture {
  Simulator sim;
  double rate_bps = 8e6;
  int delivered = 0;
  int dropped = 0;
  cellular::LinkQueue queue;

  explicit AqmFixture(cellular::LinkQueueConfig cfg)
      : queue{sim, cfg, [this] { return rate_bps; },
              [this](net::Packet, cellular::LinkQueue::DoneFn) { ++delivered; },
              [this](const net::Packet&) { ++dropped; }} {}

  void offer(double load_bps, double seconds) {
    const double interval_s = 1240.0 * 8.0 / load_bps;
    int id = 1;
    for (double t = 0.0; t < seconds; t += interval_s) {
      net::Packet p;
      p.id = static_cast<std::uint64_t>(id++);
      p.size_bytes = 1240;
      p.enqueued = TimePoint::origin() + Duration::seconds(t);
      sim.schedule_at(p.enqueued, [this, p] { queue.enqueue(p); });
    }
  }
};

TEST(Aqm, NoDropsBelowTarget) {
  cellular::LinkQueueConfig cfg;
  cfg.aqm_enabled = true;
  AqmFixture f{cfg};
  f.offer(4e6, 10.0);  // half the service rate: sojourn ~0
  f.sim.run_all();
  EXPECT_EQ(f.queue.aqm_drops(), 0u);
  EXPECT_EQ(f.dropped, 0);
}

TEST(Aqm, DropsUnderSustainedOverload) {
  cellular::LinkQueueConfig cfg;
  cfg.aqm_enabled = true;
  AqmFixture f{cfg};
  f.offer(12e6, 10.0);  // 1.5x the service rate: queue builds past target
  f.sim.run_all();
  EXPECT_GT(f.queue.aqm_drops(), 5u);
}

TEST(Aqm, DisabledMeansDeepFifoOnly) {
  cellular::LinkQueueConfig cfg;
  cfg.aqm_enabled = false;
  AqmFixture f{cfg};
  f.offer(12e6, 10.0);
  f.sim.run_all();
  EXPECT_EQ(f.queue.aqm_drops(), 0u);
}

TEST(Aqm, BoundsStandingQueueDelay) {
  // With AQM, the delivered packets' sojourn stays near the target instead
  // of growing toward the deep-buffer limit.
  cellular::LinkQueueConfig cfg;
  cfg.aqm_enabled = true;
  cfg.aqm_target = Duration::millis(20);
  Simulator sim;
  double max_sojourn_ms = 0.0;
  cellular::LinkQueue q{
      sim, cfg, [] { return 8e6; },
      [&](net::Packet p, cellular::LinkQueue::DoneFn) {
        max_sojourn_ms = std::max(max_sojourn_ms, (p.sent - p.enqueued).ms());
      },
      nullptr};
  const double interval_s = 1240.0 * 8.0 / 10e6;  // 10 Mbps offered vs 8 served
  int id = 1;
  for (double t = 0.0; t < 30.0; t += interval_s) {
    net::Packet p;
    p.id = static_cast<std::uint64_t>(id++);
    p.size_bytes = 1240;
    p.enqueued = TimePoint::origin() + Duration::seconds(t);
    sim.schedule_at(p.enqueued, [&q, p] { q.enqueue(p); });
  }
  sim.run_all();
  EXPECT_LT(max_sojourn_ms, 400.0);  // far below the multi-second deep buffer
}

// --- DAPS handover ---

pipeline::SessionReport run_ho_mode(bool daps, std::uint64_t seed) {
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = seed;
  auto cfg = experiment::make_session_config(s);
  cfg.link.handover.make_before_break = daps;
  auto rng = experiment::scenario_rng(seed);
  auto layout = experiment::make_layout(s, rng);
  auto traj = experiment::make_trajectory(s, rng);
  pipeline::Session session{cfg, std::move(layout), &traj, "daps-test"};
  return session.run();
}

TEST(Daps, StillRecordsHandovers) {
  const auto r = run_ho_mode(true, 91);
  EXPECT_GT(r.handovers.count(), 0u);
}

TEST(Daps, ShortensLatencyTail) {
  metrics::Cdf bbm, daps;
  for (std::uint64_t k = 0; k < 3; ++k) {
    bbm.merge(run_ho_mode(false, 91 + k).owd_ms);
    daps.merge(run_ho_mode(true, 91 + k).owd_ms);
  }
  EXPECT_LT(daps.quantile(0.999), bbm.quantile(0.999));
}

// --- Multipath ---

pipeline::SessionReport run_multipath(std::uint64_t seed) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = seed;
  auto rng = experiment::scenario_rng(seed);
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(experiment::make_layout(s, rng));
  experiment::Scenario s2 = s;
  s2.env = experiment::Environment::kRuralP2;
  layouts.push_back(experiment::make_layout(s2, rng));
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  pipeline::Session mp{cfg, std::move(layouts), &traj, "mp-test",
                       bond::Policy::kDuplicate};
  return mp.run();
}

// Share of sent media packets that never reached the receiver.
double effective_loss(const pipeline::SessionReport& r) {
  return 1.0 - static_cast<double>(r.packets_received) /
                   static_cast<double>(r.packets_sent);
}

TEST(Multipath, DeliversWithoutDuplicatesToPlayer) {
  const auto r = run_multipath(17);
  // Unique packets forwarded never exceed the packets sent once.
  EXPECT_LE(r.packets_received, r.packets_sent);
  EXPECT_GT(r.frames_played, r.frames_encoded * 9 / 10);
}

TEST(Multipath, SecondaryLinkRescuesPackets) {
  // More unique packets reached the receiver than the primary link
  // delivered: the secondary's copies stood in for primary-side losses.
  const auto r = run_multipath(18);
  ASSERT_EQ(r.bond_paths.size(), 2u);
  EXPECT_GT(r.bond_paths[0].lost_packets, 0u);
  EXPECT_GT(r.packets_received, r.bond_paths[0].delivered_packets);
}

TEST(Multipath, LowerEffectiveLossThanSinglePath) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  double single_loss = 0.0, multi_loss = 0.0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    s.seed = 50 + k;
    single_loss += effective_loss(experiment::run_scenario(s));
    multi_loss += effective_loss(run_multipath(50 + k));
  }
  EXPECT_LT(multi_loss, single_loss + 1e-9);
}

TEST(Multipath, ReportsCombinedCellCount) {
  const auto r = run_multipath(19);
  EXPECT_GT(r.cells_seen, 2u);
  EXPECT_EQ(r.cc_name, "static+mpdup");
}

}  // namespace
}  // namespace rpv
