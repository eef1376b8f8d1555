// rpv::fleet — streaming-merge algebra (Histogram / MetricsRegistry merge is
// associative and merge-order independent), SharedDeployment load accounting,
// load-dependent radio capacity, the deduplicated grid-layout generator
// (golden pins so the named deployments can never drift), fleet determinism
// across worker counts, and the fleet-of-one == standalone-session identity.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cellular/base_station.hpp"
#include "cellular/radio_model.hpp"
#include "exec/campaign_engine.hpp"
#include "experiment/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/fleet_report.hpp"
#include "fleet/shared_deployment.hpp"
#include "geo/trajectory.hpp"
#include "obs/metrics_registry.hpp"
#include "pipeline/report_json.hpp"
#include "pipeline/session.hpp"
#include "sim/rng.hpp"

namespace rpv {
namespace {

using obs::Component;
using obs::Event;
using obs::EventKind;

Event stall_event(double ms) {
  Event e;
  e.component = Component::kReceiver;
  e.kind = EventKind::kStall;
  e.payload = obs::StallPayload{ms};
  return e;
}

Event received_event(double owd_ms) {
  Event e;
  e.component = Component::kReceiver;
  e.kind = EventKind::kPacketReceived;
  obs::PacketPayload p;
  p.owd_ms = owd_ms;
  e.payload = p;
  return e;
}

Event handover_event() {
  Event e;
  e.component = Component::kCellular;
  e.kind = EventKind::kHandoverStart;
  e.payload = obs::HandoverPayload{1, 2, 120000};
  return e;
}

// --- merge algebra ----------------------------------------------------------

TEST(FleetMerge, HistogramMergeMatchesSingleFeed) {
  auto a = obs::make_stall_histogram("stall_ms");
  auto b = obs::make_stall_histogram("stall_ms");
  auto all = obs::make_stall_histogram("stall_ms");
  const std::vector<double> xs_a = {10.0, 350.0, 1200.0, 9999.0};
  const std::vector<double> xs_b = {500.0, 500.0, 2000.0};
  for (const double x : xs_a) { a.add(x); all.add(x); }
  for (const double x : xs_b) { b.add(x); all.add(x); }
  a.merge(b);
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.total, xs_a.size() + xs_b.size());
}

TEST(FleetMerge, HistogramMergeRejectsLayoutMismatch) {
  auto stall = obs::make_stall_histogram("stall_ms");
  auto owd = obs::make_owd_histogram("owd_ms");
  EXPECT_THROW(stall.merge(owd), std::invalid_argument);
  auto renamed = obs::make_stall_histogram("other");
  EXPECT_THROW(stall.merge(renamed), std::invalid_argument);
}

TEST(FleetMerge, RegistryMergeIsAssociativeAndOrderIndependent) {
  // Three registries with distinct, overlapping event mixes.
  obs::MetricsRegistry a, b, c;
  for (int i = 0; i < 5; ++i) a.on_event(stall_event(400.0 + 100.0 * i));
  for (int i = 0; i < 7; ++i) a.on_event(received_event(30.0 + i));
  for (int i = 0; i < 3; ++i) b.on_event(handover_event());
  for (int i = 0; i < 9; ++i) b.on_event(received_event(250.0));
  c.on_event(stall_event(5500.0));
  c.on_event(handover_event());

  // (a + b) + c
  obs::MetricsRegistry left;
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // c + (b + a) — different association and different order.
  obs::MetricsRegistry inner;
  inner.merge(b);
  inner.merge(a);
  obs::MetricsRegistry right;
  right.merge(c);
  right.merge(inner);

  EXPECT_EQ(left.summary(), right.summary());
  EXPECT_EQ(left.count(Component::kCellular, EventKind::kHandoverStart), 4u);
  EXPECT_EQ(left.count(Component::kReceiver, EventKind::kStall), 6u);

  // Merging an empty registry is the identity.
  obs::MetricsRegistry with_empty;
  with_empty.merge(a);
  with_empty.merge(obs::MetricsRegistry{});
  EXPECT_EQ(with_empty.summary(), a.summary());
}

// --- SharedDeployment -------------------------------------------------------

TEST(SharedDeployment, SharesPeaksAndDrainAccounting) {
  sim::Rng rng{7};
  fleet::SharedDeployment dep{cellular::make_urban_layout(rng)};
  const auto cell_a = dep.layout().cells[0].cell_id;
  const auto cell_b = dep.layout().cells[1].cell_id;

  const int s0 = dep.attach();
  const int s1 = dep.attach();
  const int s2 = dep.attach();
  ASSERT_EQ(dep.attached(), 3u);

  // Nothing committed yet: everyone sees a full share.
  EXPECT_DOUBLE_EQ(dep.prb_share(cell_a), 1.0);

  dep.report(s0, cell_a, true);
  dep.report(s1, cell_a, true);
  dep.report(s2, cell_b, true);
  dep.commit_epoch();
  EXPECT_EQ(dep.active_users(cell_a), 2u);
  EXPECT_DOUBLE_EQ(dep.prb_share(cell_a), 0.5);
  // A cell with one user keeps the full share — the N=1 identity.
  EXPECT_EQ(dep.active_users(cell_b), 1u);
  EXPECT_DOUBLE_EQ(dep.prb_share(cell_b), 1.0);

  // s1's mission ends: it camps but no longer loads the cell.
  dep.report(s1, cell_a, false);
  dep.commit_epoch();
  EXPECT_EQ(dep.active_users(cell_a), 1u);
  EXPECT_DOUBLE_EQ(dep.prb_share(cell_a), 1.0);

  // Peaks remember the busiest epoch, per cell and globally.
  EXPECT_EQ(dep.peak_users(cell_a), 2u);
  EXPECT_EQ(dep.peak_users(cell_b), 1u);
  EXPECT_EQ(dep.peak_cell_load(), 2u);
  EXPECT_EQ(dep.peaks().size(), dep.layout().cells.size());
}

TEST(SharedDeployment, UnknownCellIsUnloaded) {
  sim::Rng rng{7};
  const fleet::SharedDeployment dep{cellular::make_urban_layout(rng)};
  EXPECT_DOUBLE_EQ(dep.prb_share(0xdeadu), 1.0);
  EXPECT_EQ(dep.active_users(0xdeadu), 0u);
}

// --- load-dependent capacity ------------------------------------------------

TEST(FleetRadio, FullShareIsBitIdenticalAndLoadScales) {
  sim::Rng layout_rng{11};
  const auto layout = cellular::make_urban_layout(layout_rng);
  cellular::RadioModel radio{{}, layout, sim::Rng{22}};
  radio.update({0.0, 0.0, 60.0});
  const auto serving = radio.measurements().front().cell_id;

  const double unloaded = radio.capacity_mbps(serving);
  EXPECT_EQ(unloaded, radio.capacity_mbps(serving, 1.0));

  const double half = radio.capacity_mbps(serving, 0.5);
  const double tenth = radio.capacity_mbps(serving, 0.1);
  EXPECT_LT(half, unloaded);
  EXPECT_LE(half, 0.5 * unloaded + 1e-9);
  EXPECT_LT(tenth, half);
  // Even a starved UE keeps a residual scheduling grant.
  EXPECT_GT(radio.capacity_mbps(serving, 1e-6), 0.0);
}

// --- deduplicated layout builders -------------------------------------------

TEST(GridLayout, NamedBuildersEqualTheirSpecs) {
  const struct {
    cellular::CellLayout (*builder)(sim::Rng&);
    cellular::GridLayoutSpec spec;
  } cases[] = {
      {cellular::make_urban_layout, cellular::urban_grid_spec()},
      {cellular::make_rural_layout_p1, cellular::rural_p1_grid_spec()},
      {cellular::make_rural_layout_p2, cellular::rural_p2_grid_spec()},
  };
  for (const auto& c : cases) {
    sim::Rng r1{777}, r2{777};
    const auto named = c.builder(r1);
    const auto spec = cellular::make_grid_layout(r2, c.spec);
    ASSERT_EQ(named.name, spec.name);
    ASSERT_EQ(named.cells.size(), spec.cells.size());
    for (std::size_t i = 0; i < named.cells.size(); ++i) {
      EXPECT_EQ(named.cells[i].cell_id, spec.cells[i].cell_id);
      EXPECT_EQ(named.cells[i].pos.x, spec.cells[i].pos.x);
      EXPECT_EQ(named.cells[i].pos.y, spec.cells[i].pos.y);
      EXPECT_EQ(named.cells[i].pos.z, spec.cells[i].pos.z);
      EXPECT_EQ(named.cells[i].tx_power_dbm, spec.cells[i].tx_power_dbm);
      EXPECT_EQ(named.cells[i].downtilt_deg, spec.cells[i].downtilt_deg);
    }
  }
}

// Golden pins taken from the pre-dedup builders at seed 12345. If any of
// these move, every seeded campaign in the repo silently re-rolls.
TEST(GridLayout, GoldenPinsSeed12345) {
  {
    sim::Rng rng{12345};
    const auto l = cellular::make_urban_layout(rng);
    ASSERT_EQ(l.cells.size(), 32u);
    EXPECT_EQ(l.cells[0].cell_id, 1u);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.x, -670.74302042120928);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.y, -744.39453584465991);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.z, 39.450017395192816);
    EXPECT_DOUBLE_EQ(l.cells[0].downtilt_deg, 8.0);
    EXPECT_DOUBLE_EQ(l.cells[0].tx_power_dbm, 43.0);
    EXPECT_EQ(l.cells[16].cell_id, 17u);
    EXPECT_DOUBLE_EQ(l.cells[16].pos.x, 380.83991882776871);
    EXPECT_DOUBLE_EQ(l.cells[16].pos.y, -94.706786739229841);
    EXPECT_DOUBLE_EQ(l.cells[16].pos.z, 34.367942857869835);
    EXPECT_EQ(l.cells[31].cell_id, 32u);
    EXPECT_DOUBLE_EQ(l.cells[31].pos.x, -425.82711973123111);
    EXPECT_DOUBLE_EQ(l.cells[31].pos.y, 724.20654267301018);
    EXPECT_DOUBLE_EQ(l.cells[31].pos.z, 30.665559354477306);
  }
  {
    sim::Rng rng{12345};
    const auto l = cellular::make_rural_layout_p1(rng);
    ASSERT_EQ(l.cells.size(), 18u);
    EXPECT_EQ(l.cells[0].cell_id, 1u);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.x, -3804.9534694747285);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.y, -4295.9635722977328);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.z, 54.450017395192816);
    EXPECT_DOUBLE_EQ(l.cells[0].downtilt_deg, 4.0);
    EXPECT_DOUBLE_EQ(l.cells[0].tx_power_dbm, 46.0);
    EXPECT_DOUBLE_EQ(l.cells[9].pos.x, 4043.6141783987919);
    EXPECT_DOUBLE_EQ(l.cells[9].pos.y, -1163.2199641541338);
    EXPECT_DOUBLE_EQ(l.cells[17].pos.x, -327.92579215722225);
    EXPECT_DOUBLE_EQ(l.cells[17].pos.y, 3667.4310305606641);
  }
  {
    sim::Rng rng{12345};
    const auto l = cellular::make_rural_layout_p2(rng);
    ASSERT_EQ(l.cells.size(), 30u);
    EXPECT_EQ(l.cells[0].cell_id, 101u);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.x, -3829.3342857903872);
    EXPECT_DOUBLE_EQ(l.cells[0].pos.y, -4258.9681257605162);
    EXPECT_EQ(l.cells[15].cell_id, 116u);
    EXPECT_DOUBLE_EQ(l.cells[15].pos.x, 620.66920249543989);
    EXPECT_DOUBLE_EQ(l.cells[15].pos.y, -268.785308072573);
    EXPECT_EQ(l.cells[29].cell_id, 130u);
    EXPECT_DOUBLE_EQ(l.cells[29].pos.x, 3904.1542115425159);
    EXPECT_DOUBLE_EQ(l.cells[29].pos.y, 3875.8394979522491);
  }
}

// --- trajectory truncation --------------------------------------------------

TEST(Trajectory, TruncatedClampsAndPreservesPath) {
  experiment::Scenario s;
  s.mobility = experiment::Mobility::kAir;
  sim::Rng rng{5};
  const auto full = experiment::make_trajectory(s, rng);
  const auto cut_at = sim::Duration::seconds(30.0);
  const auto cut = full.truncated(cut_at);
  EXPECT_EQ(cut.end() - cut.start(), cut_at);
  // The truncated path is the same motion up to the cut.
  for (const double t : {0.0, 7.5, 15.0, 29.9}) {
    const auto tp = cut.start() + sim::Duration::seconds(t);
    EXPECT_EQ(cut.position(tp).x, full.position(tp).x);
    EXPECT_EQ(cut.position(tp).y, full.position(tp).y);
    EXPECT_EQ(cut.position(tp).z, full.position(tp).z);
  }
  // Truncating past the end is the identity.
  EXPECT_EQ(full.truncated(sim::Duration::seconds(1e6)).end(), full.end());
}

// --- fleet engine -----------------------------------------------------------

fleet::FleetScenario small_fleet(int sessions, double horizon_sec) {
  fleet::FleetScenario s;
  s.base.env = experiment::Environment::kUrban;
  s.base.mobility = experiment::Mobility::kStatic;
  s.base.cc = pipeline::CcKind::kGcc;
  s.base.seed = 42000;
  s.sessions = sessions;
  s.horizon_sec = horizon_sec;
  return s;
}

TEST(FleetEngine, FleetOfOneMatchesStandaloneSession) {
  const auto s = small_fleet(1, 15.0);
  const fleet::FleetEngine engine{{.jobs = 1, .keep_reports = true}};
  const auto result = engine.run(s);
  ASSERT_EQ(result.session_reports.size(), 1u);

  auto mission = fleet::plan_fleet(s);
  pipeline::Session solo{mission.configs[0], mission.layout,
                         &mission.trajectories[0], mission.environment};
  const auto solo_report = solo.run();
  EXPECT_EQ(pipeline::report_to_json(result.session_reports[0]).dump(),
            pipeline::report_to_json(solo_report).dump());
  EXPECT_EQ(result.report.peak_cell_load, 1u);
  EXPECT_EQ(result.report.mean_goodput_mbps, solo_report.avg_goodput_mbps);
}

TEST(FleetEngine, ByteIdenticalAcrossWorkerCounts) {
  const auto s = small_fleet(112, 10.0);  // 7 shards, jagged tail shard
  const auto r1 = fleet::FleetEngine{{.jobs = 1}}.run(s);
  const auto r8 = fleet::FleetEngine{{.jobs = 8}}.run(s);
  EXPECT_EQ(fleet::fleet_report_to_json(r1.report).dump(2),
            fleet::fleet_report_to_json(r8.report).dump(2));
}

TEST(FleetEngine, ContentionDegradesPerUavGoodput) {
  const auto solo = fleet::FleetEngine{{.jobs = 1}}.run(small_fleet(1, 20.0));
  const auto packed = fleet::FleetEngine{{.jobs = 1}}.run(small_fleet(32, 20.0));
  EXPECT_GT(packed.report.peak_cell_load, 1u);
  EXPECT_LT(packed.report.mean_goodput_mbps, solo.report.mean_goodput_mbps);
  // Contention-attributed samples only exist in the loaded fleet.
  EXPECT_EQ(solo.report.owd_contended_ms.total, 0u);
  EXPECT_GT(packed.report.owd_contended_ms.total, 0u);
}

TEST(FleetEngine, ReportJsonRoundTrips) {
  const auto result = fleet::FleetEngine{{.jobs = 2}}.run(small_fleet(8, 8.0));
  const auto j = fleet::fleet_report_to_json(result.report);
  EXPECT_EQ(j.at("schema").as_i64(), fleet::kFleetSchemaVersion);
  EXPECT_EQ(j.at("kind").as_string(), "fleet");
  const auto back = fleet::fleet_report_from_json(j);
  EXPECT_EQ(back, result.report);
  EXPECT_EQ(fleet::fleet_report_to_json(back).dump(2), j.dump(2));
}

TEST(FleetEngine, ReportJsonRejectsOutOfRangeIntegers) {
  fleet::FleetReport r;
  r.cell_peak_load.push_back({3, 2});
  const auto good = fleet::fleet_report_to_json(r);
  auto tampered = [&](const char* key, json::Value value) {
    auto v = good;
    auto f = v.at("fleet");
    f.set(key, std::move(value));
    v.set("fleet", std::move(f));
    return v;
  };
  EXPECT_THROW((void)fleet::fleet_report_from_json(
                   tampered("sessions", std::int64_t{1} << 40)),
               std::runtime_error);
  EXPECT_THROW((void)fleet::fleet_report_from_json(
                   tampered("total_stalls", std::int64_t{-1})),
               std::runtime_error);
  auto cells = json::Value::array();
  cells.push_back(json::parse(R"({"cell":4294967301,"peak_users":2})"));
  EXPECT_THROW(
      (void)fleet::fleet_report_from_json(tampered("cell_peak_load", cells)),
      std::runtime_error);
}

TEST(FleetEngine, LabelIsTheGridLabelPlusFleetSize) {
  // The cells of rpv_figures --only fleet --sessions 1,8 (urban and rural-p1).
  const struct {
    experiment::Environment env;
    int sessions;
    const char* label;
  } cells[] = {
      {experiment::Environment::kUrban, 1, "urban-static-gcc-n1"},
      {experiment::Environment::kUrban, 8, "urban-static-gcc-n8"},
      {experiment::Environment::kRuralP1, 1, "rural-p1-static-gcc-n1"},
      {experiment::Environment::kRuralP1, 8, "rural-p1-static-gcc-n8"},
  };
  for (const auto& c : cells) {
    auto s = small_fleet(c.sessions, 10.0);
    s.base.env = c.env;
    EXPECT_EQ(fleet::fleet_label(s), c.label);
  }
  // One label scheme: the base scenario's grid label plus "-n<N>".
  auto proactive = small_fleet(16, 10.0);
  proactive.base.policy = experiment::Policy::kProactive;
  auto sa = small_fleet(16, 10.0);
  sa.base.tech = experiment::AccessTech::k5gSa;
  for (const auto& s : {small_fleet(16, 10.0), proactive, sa}) {
    const auto grid = exec::expand_grid({}, s.base);
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(fleet::fleet_label(s), grid[0].label + "-n16");
  }
  EXPECT_EQ(fleet::fleet_label(proactive), "urban-static-gcc-proactive-n16");
  EXPECT_EQ(fleet::fleet_label(sa), "urban-static-gcc-5gsa-n16");
}

TEST(FleetEngine, RejectsMultipathFleets) {
  auto s = small_fleet(4, 5.0);
  s.base.multipath = experiment::Multipath::kDuplicate;
  EXPECT_THROW(fleet::plan_fleet(s), std::invalid_argument);
}

}  // namespace
}  // namespace rpv
