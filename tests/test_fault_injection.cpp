// Fault-injection subsystem tests: schedule validation and determinism,
// RLF / RRC re-establishment, feedback-silence watchdog, PLI keyframe
// recovery with exponential backoff, multipath failover, and a chaos
// property sweep (random schedules x all CCs: termination + packet
// conservation).
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "fault/backoff.hpp"
#include "fault/fault_schedule.hpp"
#include "pipeline/session.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

// --- FaultSchedule ---

TEST(FaultSchedule, RejectsInvalidEvents) {
  fault::FaultSchedule s;
  // Non-RLF events need a positive duration.
  EXPECT_THROW(s.feedback_blackout(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(s.wan_outage(10.0, -1.0), std::invalid_argument);
  // Collapse magnitude is a residual fraction in [0, 1).
  EXPECT_THROW(s.capacity_collapse(10.0, 1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(s.capacity_collapse(10.0, 1.0, -0.1), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, KeepsEventsSortedByTime) {
  fault::FaultSchedule s;
  s.wan_outage(120.0, 1.0).rlf(30.0).feedback_blackout(60.0, 2.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_LT(s.events()[0].at, s.events()[1].at);
  EXPECT_LT(s.events()[1].at, s.events()[2].at);
  EXPECT_EQ(s.events()[0].kind, fault::FaultKind::kRlf);
}

TEST(FaultSchedule, RandomIsDeterministicPerSeed) {
  const auto horizon = Duration::seconds(300.0);
  const auto a = fault::FaultSchedule::random(7, horizon);
  const auto b = fault::FaultSchedule::random(7, horizon);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  const auto c = fault::FaultSchedule::random(8, horizon);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

// --- Backoff ---

TEST(Backoff, DoublesUpToCapAndKeepsRetrying) {
  fault::Backoff b{Duration::millis(100), 8};
  EXPECT_EQ(b.next(), Duration::millis(100));
  EXPECT_EQ(b.next(), Duration::millis(200));
  EXPECT_EQ(b.next(), Duration::millis(400));
  EXPECT_EQ(b.next(), Duration::millis(800));
  // Capped: the interval stops growing but never stops being offered.
  EXPECT_EQ(b.next(), Duration::millis(800));
  EXPECT_EQ(b.next(), Duration::millis(800));
  b.reset();
  EXPECT_EQ(b.next(), Duration::millis(100));
}

// --- Deterministic replay ---

TEST(FaultInjection, SameSeedAndScheduleReproduceRun) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 401;
  s.resilience = true;
  s.model_reference_loss = true;
  s.faults.rlf(50.0).feedback_blackout(120.0, 2.0).wan_outage(200.0, 1.5);
  const auto a = run_scenario(s);
  const auto b = run_scenario(s);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.frames_played, b.frames_played);
  EXPECT_EQ(a.stall_duration_ms.size(), b.stall_duration_ms.size());
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.watchdog_events, b.watchdog_events);
  EXPECT_EQ(a.pli_sent, b.pli_sent);
  EXPECT_EQ(a.media_losses, b.media_losses);
  EXPECT_EQ(a.wan_drops, b.wan_drops);
  ASSERT_EQ(a.fault_outcomes.size(), b.fault_outcomes.size());
  for (std::size_t i = 0; i < a.fault_outcomes.size(); ++i) {
    EXPECT_EQ(a.fault_outcomes[i].effective_duration,
              b.fault_outcomes[i].effective_duration);
    EXPECT_DOUBLE_EQ(a.fault_outcomes[i].recovery_ms,
                     b.fault_outcomes[i].recovery_ms);
  }
  EXPECT_EQ(a.ssim, b.ssim);
}

// --- RLF / RRC re-establishment ---

TEST(FaultInjection, RlfEmitsReestablishmentAndBoundsHet) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 402;
  auto rng = experiment::scenario_rng(s.seed);
  auto layout = experiment::make_layout(s, rng);
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  cfg.faults.rlf(60.0).rlf(180.0);
  pipeline::Session session{cfg, std::move(layout), &traj, "rlf-test"};
  std::vector<obs::Event> rlfs;
  obs::FunctionSink sink{obs::kind_bit(obs::EventKind::kRlf),
                         [&](const obs::Event& e) { rlfs.push_back(e); }};
  session.subscribe(&sink);
  const auto r = session.run();

  EXPECT_EQ(r.faults_injected, 2u);
  // One re-establishment per injected RLF, each carrying the outage the
  // fault outcome reports.
  ASSERT_EQ(rlfs.size(), 2u);
  ASSERT_EQ(r.fault_outcomes.size(), 2u);
  for (std::size_t i = 0; i < rlfs.size(); ++i) {
    EXPECT_EQ(std::get<obs::HandoverPayload>(rlfs[i].payload).het_us,
              r.fault_outcomes[i].effective_duration.us());
  }
  // Timestamps stay monotone even with injected faults.
  EXPECT_LT(rlfs[0].t, rlfs[1].t);

  // Each RLF appears in the handover log and its interruption respects the
  // same max_het_ms clamp as ordinary handovers.
  EXPECT_GE(r.handovers.count(), 2u);
  for (const auto& o : r.fault_outcomes) {
    EXPECT_GT(o.effective_duration, Duration::zero());
    EXPECT_LE(o.effective_duration.ms(), cfg.link.het.max_het_ms);
    // RLF = T310 expiry + re-establishment: never shorter than T310.
    EXPECT_GE(o.effective_duration.ms(), cfg.link.het.rlf_t310_ms);
  }
}

// --- Feedback watchdog ---

TEST(FaultInjection, WatchdogFiresExactlyOncePerBlackout) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;  // no handover-induced silence
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 403;
  s.resilience = true;
  s.faults.feedback_blackout(60.0, 2.0).feedback_blackout(200.0, 3.0);
  const auto r = run_scenario(s);
  EXPECT_EQ(r.watchdog_events, 2u);
  EXPECT_GT(r.fault_drops, 0u);  // the blackout really dropped feedback
  EXPECT_GT(r.frames_played, 1000u);
}

TEST(FaultInjection, WatchdogNeverFiresWithoutFaults) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 404;
  s.resilience = true;
  const auto r = run_scenario(s);
  EXPECT_EQ(r.watchdog_events, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
}

// --- PLI keyframe recovery ---

TEST(FaultInjection, OutageTriggersPliAndForcedKeyframes) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 405;
  s.resilience = true;
  s.model_reference_loss = true;
  s.faults.wan_outage(100.0, 2.0);
  const auto r = run_scenario(s);
  EXPECT_GE(r.pli_sent, 1u);
  EXPECT_GE(r.keyframes_forced, 1u);
  ASSERT_EQ(r.fault_outcomes.size(), 1u);
  // The pipeline recovered before the run ended.
  EXPECT_GE(r.fault_outcomes[0].recovery_ms, 0.0);
}

// --- Direct uplink blackout hook ---

TEST(FaultInjection, UplinkBlackoutDropsMediaAndConserves) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = 406;
  auto rng = experiment::scenario_rng(s.seed);
  auto layout = experiment::make_layout(s, rng);
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  pipeline::Session session{cfg, std::move(layout), &traj, "ul-blackout"};
  session.simulator().schedule_at(TimePoint::from_us(90'000'000), [&] {
    session.link().inject_uplink_blackout(Duration::seconds(1.0));
  });
  const auto r = session.run();
  EXPECT_GT(session.link().fault_drops(), 0u);
  // Uplink-blackout drops route through the loss callback, so accounting
  // still closes: sent = received + media losses + WAN drops + in flight.
  EXPECT_GE(r.packets_in_flight, 0);
  EXPECT_EQ(r.packets_sent, r.packets_received + r.media_losses +
                                r.wan_drops +
                                static_cast<std::uint64_t>(r.packets_in_flight));
}

// --- Multipath failover ---

TEST(FaultInjection, FailoverSwitchesToSecondaryDuringRlf) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 407;
  auto rng = experiment::scenario_rng(s.seed);
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(experiment::make_layout(s, rng));
  layouts.push_back(cellular::make_rural_layout_p2(rng));
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  cfg.faults.rlf(60.0);
  pipeline::Session session{cfg, std::move(layouts), &traj, "failover-test",
                            bond::Policy::kFailover};
  const auto r = session.run();
  // The RLF takes the primary down for >1 s (T310), so the sender switched
  // to the secondary and back: at least two active-link changes.
  EXPECT_GE(session.link_manager().path_switches(), 2u);
  EXPECT_EQ(r.bond_path_switches, session.link_manager().path_switches());
  EXPECT_GT(r.frames_played, 1000u);
  EXPECT_EQ(r.cc_name, "gcc+mpfail");
}

// --- Chaos property sweep ---

TEST(FaultInjection, ChaosSchedulesTerminateAndConservePackets) {
  const pipeline::CcKind ccs[] = {pipeline::CcKind::kStatic,
                                  pipeline::CcKind::kGcc,
                                  pipeline::CcKind::kScream};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto schedule = fault::FaultSchedule::random(
        seed, Duration::seconds(300.0), /*mean_gap_sec=*/40.0);
    ASSERT_FALSE(schedule.empty());
    for (const auto cc : ccs) {
      experiment::Scenario s;
      s.env = experiment::Environment::kRuralP1;
      s.mobility = experiment::Mobility::kAir;
      s.cc = cc;
      s.seed = 500 + seed;
      s.resilience = true;
      s.model_reference_loss = true;
      s.faults = schedule;
      const auto r = run_scenario(s);  // termination == this returns
      EXPECT_EQ(r.faults_injected, schedule.size());
      EXPECT_GT(r.frames_played, 0u);
      EXPECT_GE(r.packets_in_flight, 0)
          << pipeline::cc_name(cc) << " seed " << seed;
      EXPECT_EQ(r.packets_sent,
                r.packets_received + r.media_losses + r.wan_drops +
                    static_cast<std::uint64_t>(r.packets_in_flight))
          << pipeline::cc_name(cc) << " seed " << seed;
      // In-flight at drain is a tail, not a leak.
      EXPECT_LT(static_cast<std::uint64_t>(r.packets_in_flight),
                r.packets_sent / 10 + 1000);
    }
  }
}

// --- Validation satellite ---

TEST(Validation, TrajectoryRejectsUnsortedWaypoints) {
  std::vector<geo::Waypoint> pts;
  pts.push_back({TimePoint::from_us(2'000'000), {0.0, 0.0, 0.0}});
  pts.push_back({TimePoint::from_us(1'000'000), {1.0, 0.0, 0.0}});
  EXPECT_THROW(geo::Trajectory{std::move(pts)}, std::invalid_argument);
}

TEST(Validation, SessionRejectsBadConfig) {
  experiment::Scenario s;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kStatic;
  sim::Rng rng{42};
  auto layout = experiment::make_layout(s, rng);
  auto traj = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  cfg.static_bitrate_bps = 0.0;
  EXPECT_THROW(
      (pipeline::Session{cfg, std::move(layout), &traj, "bad-config"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace rpv
