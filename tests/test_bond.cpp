// rpv::bond — reorder-window edge cases (cross-path skew ordering, overflow
// and timeout flushes, duplicate suppression), the adaptive FEC controller's
// attack/release ladder, mid-stream FEC retuning, bonded end-to-end smoke per
// policy (including FEC recovery through an injected RLF on one of the two
// paths), and byte-identical bonded campaigns across worker counts.
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "bond/fec_controller.hpp"
#include "bond/policy.hpp"
#include "bond/reorder_window.hpp"
#include "exec/campaign_engine.hpp"
#include "experiment/scenario.hpp"
#include "pipeline/session.hpp"
#include "pipeline/report_json.hpp"
#include "rtp/fec.hpp"
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

// --- ReorderWindow ---

TEST(ReorderWindow, InOrderStreamPassesThroughUnheld) {
  WindowFixture f;
  for (std::uint16_t s = 1; s <= 5; ++s) {
    f.window->on_packet(media(s, s, f.sim.now()), 0);
  }
  ASSERT_EQ(f.out.size(), 5u);
  for (std::uint16_t s = 1; s <= 5; ++s) EXPECT_EQ(f.out[s - 1].first, s);
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->flushes(), 0u);
}

TEST(ReorderWindow, CrossPathArrivalWithUnequalSkewReleasesInSeqOrder) {
  WindowFixture f;
  // Prime per-path latency estimates: path 0 fast (~10 ms), path 1 slow
  // (~40 ms) — a 30 ms skew, as between a loaded and an idle operator.
  f.window->on_packet(media(1, 1, f.sim.now() - Duration::millis(10)), 0);
  // Seq 3 overtakes seq 2 on the fast path; the window must hold it.
  f.window->on_packet(media(3, 3, f.sim.now() - Duration::millis(10)), 0);
  EXPECT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.window->held(), 1u);
  // The straggler lands on the slow path well within the hold window.
  f.sim.run_until(f.sim.now() + Duration::millis(5));
  f.window->on_packet(media(2, 2, f.sim.now() - Duration::millis(40)), 1);
  EXPECT_NEAR(f.window->skew_ms(), 30.0, 1.0);
  ASSERT_EQ(f.out.size(), 3u);
  EXPECT_EQ(f.out[1], (std::pair<std::uint16_t, int>{2, 1}));
  EXPECT_EQ(f.out[2], (std::pair<std::uint16_t, int>{3, 0}));
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->flushes(), 0u);
}

TEST(ReorderWindow, GapTimeoutFlushesHeldPacketsAndLateCopyBypasses) {
  WindowFixture f;
  f.window->on_packet(media(1, 1, f.sim.now()), 0);
  f.window->on_packet(media(3, 3, f.sim.now()), 0);  // gap at seq 2
  EXPECT_EQ(f.window->held(), 1u);
  // Default hold with zero skew is base_hold (30 ms).
  f.sim.run_until(f.sim.now() + Duration::millis(100));
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.out[1].first, 3);
  EXPECT_EQ(f.window->flushes(), 1u);
  // The missing packet finally limps in: delivered immediately, counted late,
  // never re-ordered backwards.
  f.window->on_packet(media(2, 2, f.sim.now()), 1);
  ASSERT_EQ(f.out.size(), 3u);
  EXPECT_EQ(f.out[2].first, 2);
  EXPECT_EQ(f.window->late_packets(), 1u);
}

TEST(ReorderWindow, OverflowFlushReleasesEverythingInOrder) {
  bond::ReorderWindowConfig cfg;
  cfg.max_packets = 8;
  WindowFixture f{cfg};
  f.window->on_packet(media(100, 100, f.sim.now()), 0);
  // Seq 101 never arrives; 8 buffered packets trip the overflow bound.
  for (std::uint16_t s = 102; s <= 109; ++s) {
    f.window->on_packet(media(s, s, f.sim.now()), 0);
  }
  ASSERT_EQ(f.out.size(), 9u);
  for (std::size_t i = 1; i < f.out.size(); ++i) {
    EXPECT_LT(f.out[i - 1].first, f.out[i].first);
  }
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->flushes(), 1u);
}

TEST(ReorderWindow, DuplicateCopiesAcrossPathsSuppressedExactlyOnce) {
  WindowFixture f;
  auto p = media(7, 7, f.sim.now());
  f.window->on_packet(p, 0);
  auto copy = p;
  copy.id = 999999;  // bonded duplicates get fresh descriptor ids
  f.window->on_packet(copy, 1);
  EXPECT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.window->duplicates_suppressed(), 1u);
}

TEST(ReorderWindow, ParityAndMediaKeysDoNotCollide) {
  WindowFixture f;
  f.window->on_packet(media(5, 0, f.sim.now()), 0);
  net::Packet parity;
  parity.kind = net::PacketKind::kFecParity;
  parity.transport_seq = 5;  // same transport seq as the media packet
  parity.fec_group = 0;
  parity.sent = f.sim.now();
  f.window->on_packet(parity, 1);
  EXPECT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.window->duplicates_suppressed(), 0u);
}

TEST(ReorderWindow, PacketWhoseSeqIsAlreadyHeldIsReleasedAtOnce) {
  WindowFixture f;
  f.window->on_packet(media(5, 5, f.sim.now()), 0);
  f.window->on_packet(media(7, 7, f.sim.now()), 0);  // held behind seq 6
  net::Packet parity;
  parity.id = 70;
  parity.kind = net::PacketKind::kFecParity;
  parity.transport_seq = 7;  // numbered like the held media packet
  parity.fec_group = 0;
  parity.sent = f.sim.now();
  f.window->on_packet(parity, 1);
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.out[1], (std::pair<std::uint16_t, int>{7, 1}));
  EXPECT_EQ(f.window->late_packets(), 1u);
  EXPECT_EQ(f.window->duplicates_suppressed(), 0u);
  EXPECT_EQ(f.window->held(), 1u);
  f.window->flush_all();
  EXPECT_EQ(f.window->delivered() + f.window->duplicates_suppressed(), 3u);
}

// A copy trailing the stream by more than half the 16-bit seq space (its
// original lost, or forgotten by the duplicate filter) is released late at
// once; it does not land ahead of the stream and drag next_expected along.
TEST(ReorderWindow, FarTrailingCopyIsReleasedLateWithoutMovingTheStream) {
  WindowFixture f;
  for (std::uint16_t s = 0; s < 41'000; ++s) {
    f.window->on_packet(media(s, s, f.sim.now()), 0);
  }
  f.window->on_packet(media(41'001, 41'001, f.sim.now()), 0);  // held: 41000 missing
  ASSERT_EQ(f.window->next_expected(), 41'000);
  f.window->on_packet(media(1'001, 7, f.sim.now()), 1);  // 40,000 seqs late
  EXPECT_EQ(f.out.back(), (std::pair<std::uint16_t, int>{1'001, 1}));
  EXPECT_EQ(f.window->late_packets(), 1u);
  EXPECT_EQ(f.window->next_expected(), 41'000);
  EXPECT_EQ(f.window->held(), 1u);
  EXPECT_LE(f.window->ring_slots(), 64u);
  f.window->on_packet(media(41'000, 41'000, f.sim.now()), 0);
  EXPECT_EQ(f.window->next_expected(), 41'002);
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->late_packets(), 1u);
}

// Two packets in a row far ahead of the stream, the second the successor of
// the first, are the stream itself jumping: the window follows it.
TEST(ReorderWindow, StreamJumpingFarAheadIsFollowed) {
  WindowFixture f;
  for (std::uint16_t s = 0; s < 10; ++s) {
    f.window->on_packet(media(s, s, f.sim.now()), 0);
  }
  f.window->on_packet(media(12, 12, f.sim.now()), 0);  // held: 10, 11 missing
  f.window->on_packet(media(10'000, 10'000, f.sim.now()), 0);
  EXPECT_EQ(f.window->late_packets(), 1u);
  EXPECT_EQ(f.window->next_expected(), 10);
  f.window->on_packet(media(10'001, 10'001, f.sim.now()), 0);
  EXPECT_EQ(f.window->next_expected(), 10'002);
  EXPECT_EQ(f.window->held(), 0u);
  EXPECT_EQ(f.window->flushes(), 1u);  // the held seq 12 went first
  f.window->on_packet(media(10'003, 10'003, f.sim.now()), 0);
  EXPECT_EQ(f.window->held(), 1u);  // reordering resumes from the new place
  ASSERT_EQ(f.out.size(), 13u);
  EXPECT_EQ(f.out[10].first, 10'000);
  EXPECT_EQ(f.out[11].first, 12);
  EXPECT_EQ(f.out[12].first, 10'001);
}

TEST(ReorderWindow, FlushAllDrainsAroundGaps) {
  WindowFixture f;
  f.window->on_packet(media(1, 1, f.sim.now()), 0);
  f.window->on_packet(media(4, 4, f.sim.now()), 0);
  f.window->on_packet(media(6, 6, f.sim.now()), 1);
  f.window->flush_all();
  ASSERT_EQ(f.out.size(), 3u);
  EXPECT_EQ(f.out[1].first, 4);
  EXPECT_EQ(f.out[2].first, 6);
  EXPECT_EQ(f.window->held(), 0u);
}

// --- AdaptiveFecController ---

TimePoint at_s(double s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(AdaptiveFec, FastAttackOnLossJumpsStraightToPressureRung) {
  bond::AdaptiveFecController ctrl;
  EXPECT_EQ(ctrl.group_size(), 16);
  bond::FecInputs in;
  in.max_loss_ewma = 0.05;  // >= rung-2 threshold
  const auto change = ctrl.update(at_s(1.0), in);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->prev_group_size, 16);
  EXPECT_EQ(change->group_size, 8);
  EXPECT_EQ(ctrl.level(), 2);
}

TEST(AdaptiveFec, ArmedHandoverForcesElevatedRung) {
  bond::AdaptiveFecController ctrl;
  bond::FecInputs in;
  in.ho_armed = true;
  const auto change = ctrl.update(at_s(1.0), in);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->group_size, 8);  // ho_rung = 2 on the default ladder
}

TEST(AdaptiveFec, ForecastDipAddsOneRung) {
  bond::AdaptiveFecController ctrl;
  bond::FecInputs in;
  in.max_loss_ewma = 0.02;  // rung 1 on its own
  in.capacity_mbps = 10.0;
  in.forecast_mbps = 5.0;  // < 0.7 * capacity: dip
  const auto change = ctrl.update(at_s(1.0), in);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(ctrl.level(), 2);
}

TEST(AdaptiveFec, UnreadyForecastNeverCountsAsDip) {
  bond::AdaptiveFecController ctrl;
  bond::FecInputs in;
  in.capacity_mbps = 10.0;
  in.forecast_mbps = -1.0;  // not ready
  EXPECT_FALSE(ctrl.update(at_s(1.0), in).has_value());
  EXPECT_EQ(ctrl.level(), 0);
}

TEST(AdaptiveFec, SlowReleaseStepsOneRungPerCleanInterval) {
  bond::AdaptiveFecController ctrl;
  bond::FecInputs dirty;
  dirty.max_loss_ewma = 0.2;
  ASSERT_TRUE(ctrl.update(at_s(1.0), dirty).has_value());
  EXPECT_EQ(ctrl.level(), 3);
  bond::FecInputs clean;
  // Too soon: the clean interval has not elapsed.
  EXPECT_FALSE(ctrl.update(at_s(2.0), clean).has_value());
  // One rung per elapsed clean interval, never a cliff.
  auto change = ctrl.update(at_s(4.5), clean);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(ctrl.level(), 2);
  EXPECT_FALSE(ctrl.update(at_s(5.0), clean).has_value());
  change = ctrl.update(at_s(8.0), clean);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(ctrl.level(), 1);
}

TEST(AdaptiveFec, RenewedPressureDuringDecayHoldsTheRung) {
  bond::AdaptiveFecController ctrl;
  bond::FecInputs dirty;
  dirty.max_loss_ewma = 0.05;
  ASSERT_TRUE(ctrl.update(at_s(1.0), dirty).has_value());
  // Pressure persists at the same rung: the release clock must keep resetting.
  EXPECT_FALSE(ctrl.update(at_s(4.0), dirty).has_value());
  bond::FecInputs clean;
  EXPECT_FALSE(ctrl.update(at_s(6.5), clean).has_value());  // < 3 s since 4.0
  EXPECT_TRUE(ctrl.update(at_s(7.5), clean).has_value());
}

TEST(AdaptiveFec, RejectsDegenerateLadder) {
  bond::FecControllerConfig cfg;
  cfg.ladder = {16, 1};
  EXPECT_THROW(bond::AdaptiveFecController{cfg}, std::invalid_argument);
  cfg.ladder.clear();
  EXPECT_THROW(bond::AdaptiveFecController{cfg}, std::invalid_argument);
}

// --- FecEncoder mid-stream retune ---

TEST(FecEncoder, ShrinkingGroupSizeMidStreamEmitsParityEarly) {
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecConfig cfg;
  cfg.group_size = 4;
  cfg.interleave_depth = 1;  // single slot: fills sequentially
  rtp::FecEncoder enc{cfg, table};
  net::Packet a = media(1, 1, TimePoint::origin());
  net::Packet b = media(2, 2, TimePoint::origin());
  EXPECT_FALSE(enc.on_media_packet(a).has_value());
  EXPECT_FALSE(enc.on_media_packet(b).has_value());
  enc.set_group_size(3);
  EXPECT_EQ(enc.group_size(), 3);
  net::Packet c = media(3, 3, TimePoint::origin());
  // The filling group reaches the new (smaller) size and emits immediately.
  const auto parity = enc.on_media_packet(c);
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->kind, net::PacketKind::kFecParity);
  EXPECT_EQ(enc.parity_packets(), 1u);
}

// --- Bonded end-to-end ---

experiment::Scenario bonded_scenario(experiment::Multipath mp) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.multipath = mp;
  s.c2 = true;
  s.seed = 77;
  return s;
}

TEST(BondedSession, SmokeEveryPolicyReportsItsNameAndMovesBytes) {
  struct Case {
    experiment::Multipath mp;
    const char* policy;
    const char* cc_suffix;
  };
  for (const auto& c : {Case{experiment::Multipath::kBondLowLatency,
                             "low-latency", "+bond-ll"},
                        Case{experiment::Multipath::kBondBalanced, "balanced",
                             "+bond-bal"},
                        Case{experiment::Multipath::kBondHighReliability,
                             "high-reliability", "+bond-hr"}}) {
    const auto r = experiment::run_scenario(bonded_scenario(c.mp));
    EXPECT_EQ(r.bond_policy, c.policy);
    EXPECT_NE(r.cc_name.find(c.cc_suffix), std::string::npos) << r.cc_name;
    EXPECT_GT(r.bond_media_bytes, 0u);
    EXPECT_GE(r.bond_airtime_bytes, r.bond_media_bytes);
    EXPECT_FALSE(r.owd_ms.empty());
    EXPECT_GT(r.commands_sent, 0u);
    EXPECT_FALSE(r.command_latency_ms.empty());
  }
}

TEST(BondedSession, HighReliabilityDuplicatesC2WithoutDoubleDelivery) {
  const auto r =
      experiment::run_scenario(bonded_scenario(
          experiment::Multipath::kBondHighReliability));
  // Every command is routed twice (both operators)…
  EXPECT_GT(r.bond_airtime_bytes, r.bond_media_bytes);
  // …but the pilot->UAV channel observes each command at most once.
  EXPECT_LE(r.command_latency_ms.count(), r.commands_sent);
  EXPECT_GT(r.command_latency_ms.count(), 0u);
}

TEST(BondedSession, FecRecoversThroughRlfOnOneOfTwoPaths) {
  auto s = bonded_scenario(experiment::Multipath::kBondHighReliability);
  // The injector hits link A only: one operator takes a radio-link failure
  // mid-run while the other keeps carrying traffic.
  s.faults.rlf(90.0).rlf(200.0);
  const auto r = experiment::run_scenario(s);
  EXPECT_GT(r.bond_fec_recovered, 0u);
  EXPECT_GT(r.bond_path_switches, 0u);
  EXPECT_GT(r.bond_fec_rate_changes, 0u);
  // The stream survives the outages: stalls stay bounded, frames keep flowing.
  EXPECT_FALSE(r.owd_ms.empty());
}

TEST(BondedSession, ReorderFlushesAndSuppressionShowUpUnderBalancedSpray) {
  const auto r = experiment::run_scenario(
      bonded_scenario(experiment::Multipath::kBondBalanced));
  // Balanced spray interleaves two paths, so the window must actually work:
  // keyframe duplication feeds the suppression counter.
  EXPECT_GT(r.bond_duplicates_suppressed, 0u);
}

TEST(BondedSession, OneCollectFillsLossAccountingForEveryPathCount) {
  // A bonded report comes out of the same collect() as a single-path one:
  // every path's loss callback feeds losses_per_second and media_losses, and per
  // keeps the Fig. 6 formula, summed over paths.
  auto s = bonded_scenario(experiment::Multipath::kBondHighReliability);
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.faults_on_both_operators = true;
  const auto r = experiment::run_scenario(s);
  EXPECT_GT(r.radio_losses, 0u);
  EXPECT_EQ(std::accumulate(r.losses_per_second.begin(),
                            r.losses_per_second.end(), std::uint64_t{0}),
            r.radio_losses);
  EXPECT_GT(r.media_losses, 0u);
  ASSERT_GT(r.packets_sent, 0u);
  EXPECT_DOUBLE_EQ(r.per, static_cast<double>(r.radio_losses + r.buffer_drops) /
                              static_cast<double>(r.packets_sent));
}

TEST(BondedCampaign, ByteIdenticalAcrossWorkerCounts) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kRuralP1};
  axes.multipaths = {experiment::Multipath::kBondLowLatency,
                     experiment::Multipath::kBondBalanced,
                     experiment::Multipath::kBondHighReliability};
  axes.fault_presets = {experiment::FaultPreset::kChaos};
  experiment::Scenario base;
  base.cc = pipeline::CcKind::kStatic;
  base.c2 = true;
  const auto cells = exec::expand_grid(axes, base);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].label, "rural-p1-air-static-bond-ll-chaos");

  const exec::CampaignEngine serial{{.jobs = 1}};
  const exec::CampaignEngine wide{{.jobs = 8}};
  const auto a = serial.run_grid(cells, 1, 4242);
  const auto b = wide.run_grid(cells, 1, 4242);
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
