// rpv::sat — satellite/mesh path models and 3-way multi-connectivity:
// seed-determinism of the pre-sampled pass/outage schedule, the propagation
// floor, drops across unavailable windows, mesh latency/loss compounding,
// the reorder window under three paths of divergent skew (timeout flush and
// exactly-once dedup across all three), the schema-v6 per-path/sat report
// block, and byte-identical sat-grid campaigns across worker counts.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bond/reorder_window.hpp"
#include "exec/campaign_engine.hpp"
#include "experiment/scenario.hpp"
#include "pipeline/session.hpp"
#include "pipeline/report_json.hpp"
#include "sat/mesh_link.hpp"
#include "sat/satellite_link.hpp"
#include "sim/simulator.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

net::Packet media(std::uint16_t tseq, std::uint32_t frame, TimePoint sent) {
  net::Packet p;
  p.id = tseq;
  p.kind = net::PacketKind::kRtpVideo;
  p.transport_seq = tseq;
  p.frame_id = frame;
  p.size_bytes = 1200;
  p.sent = sent;
  return p;
}

// --- SatelliteLink ---

TEST(SatelliteLink, PreSampledScheduleIsSeedDeterministic) {
  sim::Simulator sim_a, sim_b;
  sat::SatelliteLinkConfig cfg;
  sat::SatelliteLink a{sim_a, cfg, sim::Rng{77}};
  sat::SatelliteLink b{sim_b, cfg, sim::Rng{77}};
  a.start(Duration::seconds(120.0));
  b.start(Duration::seconds(120.0));

  ASSERT_EQ(a.pass_windows().size(), b.pass_windows().size());
  for (std::size_t i = 0; i < a.pass_windows().size(); ++i) {
    EXPECT_EQ(a.pass_windows()[i].start.us(), b.pass_windows()[i].start.us());
    EXPECT_EQ(a.pass_windows()[i].end.us(), b.pass_windows()[i].end.us());
  }
  ASSERT_EQ(a.outage_windows().size(), b.outage_windows().size());
  for (std::size_t i = 0; i < a.outage_windows().size(); ++i) {
    EXPECT_EQ(a.outage_windows()[i].start.us(),
              b.outage_windows()[i].start.us());
    EXPECT_EQ(a.outage_windows()[i].hard, b.outage_windows()[i].hard);
  }

  sim::Simulator sim_c;
  sat::SatelliteLink c{sim_c, cfg, sim::Rng{78}};
  c.start(Duration::seconds(120.0));
  // Pass *starts* are a fixed cadence; the sampled interruption lengths and
  // outage placement differ under another seed.
  bool differs = a.outage_windows().size() != c.outage_windows().size();
  for (std::size_t i = 0;
       !differs && i < std::min(a.pass_windows().size(),
                                c.pass_windows().size());
       ++i) {
    differs = a.pass_windows()[i].end.us() != c.pass_windows()[i].end.us();
  }
  EXPECT_TRUE(differs);
}

TEST(SatelliteLink, PassCadenceCountsHandoversAndDropsCapacity) {
  sim::Simulator sim;
  sat::SatelliteLinkConfig cfg;
  cfg.outage_mean_gap = sim::Duration::seconds(1e9);  // no outages; isolate the pass process
  sat::SatelliteLink link{sim, cfg, sim::Rng{5}};
  link.start(Duration::seconds(61.0));

  // 15 s cadence over 61 s: passes at 15/30/45/60.
  ASSERT_EQ(link.pass_windows().size(), 4u);
  EXPECT_EQ(link.pass_windows()[0].start.us(),
            (TimePoint::origin() + Duration::seconds(15.0)).us());

  sim.run_until(TimePoint::origin() + Duration::seconds(61.0));
  EXPECT_EQ(link.pass_handovers(), 4u);

  // Inside a pass interruption the bearer is down with zero capacity.
  sim::Simulator sim2;
  sat::SatelliteLink link2{sim2, cfg, sim::Rng{5}};
  link2.start(Duration::seconds(61.0));
  const auto mid = link2.pass_windows()[0].start + Duration::millis(1);
  sim2.run_until(mid);
  EXPECT_TRUE(link2.link_down());
  EXPECT_EQ(link2.current_capacity_mbps(), 0.0);
}

// Both lookups answer what a scan of every published window answers (the
// reference any faster lookup must keep), here with pass interruptions that
// often outlast the next pass or two (so a time can sit in an early pass
// after later ones have ended) and frequent rain fades beside hard
// obstructions.
TEST(SatelliteLink, WindowLookupsMatchAScanOfEveryWindow) {
  sat::SatelliteLinkConfig cfg;
  cfg.pass_interval = Duration::seconds(1.0);
  cfg.pass_interruption = Duration::millis(100);
  cfg.pass_interruption_jitter = Duration::seconds(1.0);
  cfg.outage_mean_gap = Duration::seconds(2.0);
  cfg.outage_mean_duration = Duration::seconds(1.0);
  for (const std::uint64_t seed : {1, 2, 3}) {
    sim::Simulator sim;
    sat::SatelliteLink link{sim, cfg, sim::Rng{seed}};
    link.start(Duration::seconds(60.0));
    ASSERT_GT(link.outage_windows().size(), 5u);
    auto scan = [&](TimePoint t, double& multiplier) {
      bool down = false;
      multiplier = 1.0;
      bool found = false;
      for (const auto& w : link.pass_windows()) {
        if (t >= w.start && t < w.end) {
          down = true;
          multiplier = 0.0;
          found = true;
          break;
        }
      }
      for (const auto& w : link.outage_windows()) {
        if (t >= w.start && t < w.end) {
          down = down || w.hard;
          if (!found) multiplier = w.residual;
          found = true;
        }
      }
      return down;
    };
    int checked = 0;
    for (std::int64_t us = 0; us <= 61'000'000; us += 997) {
      const auto t = TimePoint::from_us(us);
      double multiplier = 1.0;
      const bool down = scan(t, multiplier);
      ASSERT_EQ(link.in_unavailable_window(t), down) << "seed " << seed << " t " << us;
      if (us % (997 * 50) == 0) {
        sim.run_until(t);
        ASSERT_EQ(link.current_capacity_mbps(), cfg.capacity_mbps * multiplier)
            << "seed " << seed << " t " << us;
        ++checked;
      }
    }
    EXPECT_GT(checked, 1000);
  }
}

TEST(SatelliteLink, DeliversOnPropagationFloorInOrder) {
  sim::Simulator sim;
  sat::SatelliteLinkConfig cfg;
  cfg.loss_probability = 0.0;
  cfg.jitter = sim::Duration::zero();
  cfg.outage_mean_gap = sim::Duration::seconds(1e9);
  sat::SatelliteLink link{sim, cfg, sim::Rng{9}};
  link.start(Duration::seconds(10.0));

  std::vector<std::pair<std::uint16_t, TimePoint>> got;
  for (std::uint16_t s = 1; s <= 3; ++s) {
    link.send_uplink(media(s, s, sim.now()), [&got, &sim](net::Packet p) {
      got.emplace_back(p.transport_seq, sim.now());
    });
  }
  sim.run_until(TimePoint::origin() + Duration::seconds(1.0));
  ASSERT_EQ(got.size(), 3u);
  // Floor: serialization (1200 B @ 40 Mbps = 0.24 ms) + 27 ms OWD.
  const double first_ms = (got[0].second - TimePoint::origin()).sec() * 1e3;
  EXPECT_GE(first_ms, 27.0);
  EXPECT_LT(first_ms, 29.0);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, got[i - 1].first + 1);
    EXPECT_GE(got[i].second.us(), got[i - 1].second.us());
  }
}

TEST(SatelliteLink, PacketsSentDuringPassInterruptionAreLost) {
  sim::Simulator sim;
  sat::SatelliteLinkConfig cfg;
  cfg.loss_probability = 0.0;
  cfg.outage_mean_gap = sim::Duration::seconds(1e9);
  sat::SatelliteLink link{sim, cfg, sim::Rng{3}};
  link.start(Duration::seconds(31.0));

  std::uint64_t delivered = 0, lost = 0;
  link.set_loss_callback([&lost](const net::Packet&) { ++lost; });

  sim.run_until(link.pass_windows()[0].start + Duration::millis(1));
  link.send_uplink(media(1, 1, sim.now()),
                   [&delivered](net::Packet) { ++delivered; });
  sim.run_until(TimePoint::origin() + Duration::seconds(20.0));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(link.radio_losses(), 1u);

  // Clear of the window the same packet sails through.
  link.send_uplink(media(2, 2, sim.now()),
                   [&delivered](net::Packet) { ++delivered; });
  sim.run_until(TimePoint::origin() + Duration::seconds(25.0));
  EXPECT_EQ(delivered, 1u);
}

// --- MeshHopLink ---

TEST(MeshHopLink, LatencyCompoundsWithHopCount) {
  sim::Simulator sim;
  sat::MeshLinkConfig cfg;
  cfg.hops = 4;
  cfg.per_hop_loss = 0.0;
  cfg.per_hop_jitter = sim::Duration::zero();
  sat::MeshHopLink link{sim, cfg, sim::Rng{11}};
  EXPECT_DOUBLE_EQ(link.base_latency_ms(), 32.0);

  TimePoint at = TimePoint::never();
  link.send_uplink(media(1, 1, sim.now()),
                   [&at, &sim](net::Packet) { at = sim.now(); });
  sim.run_until(TimePoint::origin() + Duration::seconds(1.0));
  const double ms = (at - TimePoint::origin()).sec() * 1e3;
  EXPECT_GE(ms, 32.0);  // 4 hops x 8 ms, plus serialization
  EXPECT_LT(ms, 34.0);
}

TEST(MeshHopLink, LossCompoundsWithHopCount) {
  sim::Simulator sim;
  sat::MeshLinkConfig cfg;
  cfg.hops = 6;
  cfg.per_hop_loss = 0.05;  // e2e ~ 1 - 0.95^6 = 26%
  sat::MeshHopLink link{sim, cfg, sim::Rng{13}};

  const int n = 4000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) {
    link.send_uplink(media(static_cast<std::uint16_t>(i), 1, sim.now()),
                     [&delivered](net::Packet) { ++delivered; });
  }
  sim.run_until(TimePoint::origin() + Duration::seconds(30.0));
  const double loss =
      static_cast<double>(link.radio_losses()) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.265, 0.03);
  EXPECT_EQ(delivered + static_cast<int>(link.radio_losses()), n);
}

// --- ReorderWindow over three paths of divergent skew ---

struct WindowFixture {
  sim::Simulator sim;
  std::vector<std::pair<std::uint16_t, int>> out;  // (transport_seq, path)
  std::unique_ptr<bond::ReorderWindow> window;

  explicit WindowFixture(bond::ReorderWindowConfig cfg = {}) {
    window = std::make_unique<bond::ReorderWindow>(
        sim, cfg, [this](net::Packet p, int path) {
          out.emplace_back(p.transport_seq, path);
        });
  }
};

TEST(ReorderWindowThreePath, DivergentSkewsReleaseInSeqOrder) {
  WindowFixture f;
  // Path 0: fast cellular (~8 ms). Path 2: satellite at its ~30 ms floor.
  // Path 1: loaded cellular (~45 ms). Straggler seq 2 rides the sat path.
  f.window->on_packet(media(1, 1, f.sim.now() - Duration::millis(8)), 0);
  f.window->on_packet(media(3, 3, f.sim.now() - Duration::millis(8)), 0);
  f.window->on_packet(media(5, 5, f.sim.now() - Duration::millis(8)), 0);
  EXPECT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.window->held(), 2u);

  f.sim.run_until(f.sim.now() + Duration::millis(4));
  f.window->on_packet(media(2, 2, f.sim.now() - Duration::millis(30)), 2);
  // Seqs 1-3 are released; 5 still waits on 4.
  ASSERT_EQ(f.out.size(), 3u);
  EXPECT_EQ(f.out[1], (std::pair<std::uint16_t, int>{2, 2}));
  EXPECT_EQ(f.out[2], (std::pair<std::uint16_t, int>{3, 0}));

  f.sim.run_until(f.sim.now() + Duration::millis(4));
  f.window->on_packet(media(4, 4, f.sim.now() - Duration::millis(45)), 1);
  ASSERT_EQ(f.out.size(), 5u);
  for (std::size_t i = 1; i < f.out.size(); ++i) {
    EXPECT_LT(f.out[i - 1].first, f.out[i].first);
  }
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->flushes(), 0u);
}

TEST(ReorderWindowThreePath, SatFloorSkewTimesOutAndFlushes) {
  WindowFixture f;
  // Prime three divergent per-path estimates: 8 / 45 / 30 ms.
  f.window->on_packet(media(1, 1, f.sim.now() - Duration::millis(8)), 0);
  f.window->on_packet(media(2, 2, f.sim.now() - Duration::millis(45)), 1);
  f.window->on_packet(media(3, 3, f.sim.now() - Duration::millis(30)), 2);
  ASSERT_EQ(f.out.size(), 3u);

  // Seq 4 is lost on the slow path; 5 and 6 arrive on the other two.
  f.window->on_packet(media(5, 5, f.sim.now() - Duration::millis(8)), 0);
  f.window->on_packet(media(6, 6, f.sim.now() - Duration::millis(30)), 2);
  EXPECT_EQ(f.window->held(), 2u);

  // The hold deadline scales with the observed cross-path skew; well past
  // it everything flushes in order and the window drains.
  f.sim.run_until(f.sim.now() + Duration::millis(400));
  ASSERT_EQ(f.out.size(), 5u);
  EXPECT_EQ(f.out[3].first, 5);
  EXPECT_EQ(f.out[4].first, 6);
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_GE(f.window->flushes(), 1u);

  // The straggler finally limps in over the sat path: delivered, counted
  // late, never re-ordered backwards.
  f.window->on_packet(media(4, 4, f.sim.now() - Duration::millis(200)), 2);
  ASSERT_EQ(f.out.size(), 6u);
  EXPECT_EQ(f.out[5].first, 4);
  EXPECT_EQ(f.window->late_packets(), 1u);
}

TEST(ReorderWindowThreePath, TriplicateCopiesDeliverExactlyOnce) {
  WindowFixture f;
  auto p = media(7, 7, f.sim.now());
  f.window->on_packet(p, 0);
  auto copy_b = p;
  copy_b.id = 900001;  // duplicates ship under fresh descriptor ids
  f.window->on_packet(copy_b, 1);
  auto copy_sat = p;
  copy_sat.id = 900002;
  f.window->on_packet(copy_sat, 2);
  EXPECT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0], (std::pair<std::uint16_t, int>{7, 0}));
  EXPECT_EQ(f.window->duplicates_suppressed(), 2u);
}

// --- 3-way sessions and the schema-v6 report ---

experiment::Scenario three_way_scenario(std::uint64_t seed) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.c2 = true;
  s.multipath = experiment::Multipath::kBondHighReliability;
  s.path_set = experiment::PathSet::kThreeWay;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.faults_on_both_operators = true;
  s.seed = seed;
  return s;
}

TEST(ThreeWaySession, ReportCarriesSatBlockAndPerPathBreakdown) {
  const auto r = experiment::run_scenario(three_way_scenario(901));

  EXPECT_TRUE(r.sat_enabled);
  EXPECT_GT(r.sat_pass_handovers, 0u);
  ASSERT_EQ(r.bond_paths.size(), 3u);
  EXPECT_EQ(r.bond_paths[0].kind, "cellular");
  EXPECT_EQ(r.bond_paths[1].kind, "cellular");
  EXPECT_EQ(r.bond_paths[2].kind, "satellite");
  EXPECT_GT(r.bond_paths[2].sent_packets, 0u);
  EXPECT_GT(r.bond_paths[2].delivered_packets, 0u);
  EXPECT_GT(r.bond_paths[2].airtime_bytes, 0u);
  EXPECT_GT(r.sim_events, 0u);

  // Schema v6 round-trips the new blocks byte-for-byte.
  const auto round =
      pipeline::report_from_json(pipeline::report_to_json(r));
  EXPECT_EQ(pipeline::report_to_json(round).dump(),
            pipeline::report_to_json(r).dump());
}

TEST(ThreeWaySession, MeshPathSetAddsFourthPath) {
  auto s = three_way_scenario(902);
  s.path_set = experiment::PathSet::kThreeWayMesh;
  const auto r = experiment::run_scenario(s);
  ASSERT_EQ(r.bond_paths.size(), 4u);
  EXPECT_EQ(r.bond_paths[3].kind, "mesh");
}

TEST(ThreeWaySession, OperatorPairKeepsTwoCellularPathsAndNoSatBlock) {
  auto s = three_way_scenario(903);
  s.path_set = experiment::PathSet::kOperatorPair;
  const auto r = experiment::run_scenario(s);
  EXPECT_FALSE(r.sat_enabled);
  EXPECT_EQ(r.sat_pass_handovers, 0u);
  ASSERT_EQ(r.bond_paths.size(), 2u);
  EXPECT_EQ(r.bond_paths[0].kind, "cellular");
  EXPECT_EQ(r.bond_paths[1].kind, "cellular");
}

TEST(SatCampaign, GridLabelsAndByteIdentityAcrossWorkerCounts) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kRuralP1};
  axes.multipaths = {experiment::Multipath::kFailover,
                     experiment::Multipath::kBondHighReliability};
  axes.path_sets = {experiment::PathSet::kOperatorPair,
                    experiment::PathSet::kThreeWay};
  axes.fault_presets = {experiment::FaultPreset::kRlfStorm};
  experiment::Scenario base;
  base.mobility = experiment::Mobility::kStatic;
  base.cc = pipeline::CcKind::kStatic;
  base.c2 = true;
  base.faults_on_both_operators = true;
  const auto cells = exec::expand_grid(axes, base);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].label, "rural-p1-static-static-mpfail-rlf-storm");
  EXPECT_EQ(cells[1].label, "rural-p1-static-static-mpfail-sat-rlf-storm");
  EXPECT_EQ(cells[3].label, "rural-p1-static-static-bond-hr-sat-rlf-storm");

  const exec::CampaignEngine serial{{.jobs = 1}};
  const exec::CampaignEngine wide{{.jobs = 8}};
  const auto a = serial.run_grid(cells, 1, 7171);
  const auto b = wide.run_grid(cells, 1, 7171);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].reports.size(), b.cells[i].reports.size());
    for (std::size_t j = 0; j < a.cells[i].reports.size(); ++j) {
      EXPECT_EQ(pipeline::report_to_json(a.cells[i].reports[j]).dump(),
                pipeline::report_to_json(b.cells[i].reports[j]).dump())
          << a.cells[i].cell.label;
    }
  }
}

}  // namespace
}  // namespace rpv
