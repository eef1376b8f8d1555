// rpv::radiomap + rpv::uav: grid math, accumulation, merge algebra edges,
// canonical JSON round-trips and the strict loader, the warm-up golden pin,
// and the connectivity-aware planner (including the kPlanned scenario policy
// staying byte-deterministic and non-perturbing without evidence).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>

#include "exec/run_artifact.hpp"
#include "experiment/mapping.hpp"
#include "experiment/scenario.hpp"
#include "geo/flight_profiles.hpp"
#include "pipeline/report_json.hpp"
#include "radiomap/radio_map.hpp"
#include "radiomap/survey.hpp"
#include "uav/planner.hpp"

namespace {

using namespace rpv;

radiomap::GridSpec small_spec() {
  radiomap::GridSpec spec;
  spec.origin = {0.0, 0.0, 0.0};
  spec.voxel_xy_m = 10.0;
  spec.voxel_z_m = 20.0;
  spec.nx = 4;
  spec.ny = 3;
  spec.nz = 2;
  return spec;
}

// FNV-1a, the pin-friendly digest for byte strings too long to inline.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- grid geometry ----------------------------------------------------------

TEST(RadioMapGrid, IndexRoundTripsAndLayout) {
  const auto spec = small_spec();
  ASSERT_TRUE(spec.valid());
  EXPECT_EQ(spec.voxel_count(), 24u);
  // Lower face inclusive, upper exclusive.
  EXPECT_EQ(spec.index_of({0.0, 0.0, 0.0}).value(), 0u);
  EXPECT_EQ(spec.index_of({9.999, 0.0, 0.0}).value(), 0u);
  EXPECT_EQ(spec.index_of({10.0, 0.0, 0.0}).value(), 1u);
  // x fastest, then y, then z.
  EXPECT_EQ(spec.index_of({0.0, 10.0, 0.0}).value(), 4u);
  EXPECT_EQ(spec.index_of({0.0, 0.0, 20.0}).value(), 12u);
  EXPECT_EQ(spec.index_of({39.9, 29.9, 39.9}).value(), 23u);
  // Outside on any axis drops the point.
  EXPECT_FALSE(spec.index_of({-0.001, 0.0, 0.0}).has_value());
  EXPECT_FALSE(spec.index_of({40.0, 0.0, 0.0}).has_value());
  EXPECT_FALSE(spec.index_of({0.0, 30.0, 0.0}).has_value());
  EXPECT_FALSE(spec.index_of({0.0, 0.0, 40.0}).has_value());

  for (std::uint32_t i = 0; i < spec.voxel_count(); ++i) {
    const auto c = spec.center_of(i);
    ASSERT_TRUE(spec.index_of(c).has_value());
    EXPECT_EQ(spec.index_of(c).value(), i);
    const auto lo = spec.voxel_min(i);
    const auto hi = spec.voxel_max(i);
    EXPECT_LT(lo.x, c.x);
    EXPECT_LT(c.x, hi.x);
    EXPECT_LT(lo.z, c.z);
    EXPECT_LT(c.z, hi.z);
    EXPECT_EQ(spec.index_of(lo).value(), i);  // inclusive lower corner
  }
}

TEST(RadioMapGrid, InvalidSpecsRejected) {
  radiomap::GridSpec spec = small_spec();
  spec.voxel_xy_m = 0.0;
  EXPECT_FALSE(spec.valid());
  EXPECT_THROW(radiomap::RadioMap{spec}, std::invalid_argument);
  spec = small_spec();
  spec.nz = 0;
  EXPECT_FALSE(spec.valid());
  spec = small_spec();
  spec.nx = 1 << 13;
  spec.ny = 1 << 13;
  spec.nz = 4;  // 2^29 voxels
  EXPECT_THROW(radiomap::RadioMap{spec}, std::invalid_argument);
}

// --- accumulation -----------------------------------------------------------

TEST(RadioMap, AccumulatesPerVoxelAndPerCellStats) {
  radiomap::RadioMap map{small_spec()};
  EXPECT_TRUE(map.empty());
  const geo::Vec3 p{5.0, 5.0, 10.0};
  map.observe_measurement(p, 3, -90.0, 12.0, false);
  map.observe_measurement(p, 3, -100.0, 8.0, true);
  map.observe_measurement(p, 7, -80.0, 20.0, false);
  map.observe_rlf(p);
  map.observe_loss(p);
  map.observe_stall(p, 250.0);
  // Outside points are dropped silently.
  map.observe_measurement({-5.0, 0.0, 0.0}, 1, -50.0, 1.0, true);

  EXPECT_FALSE(map.empty());
  EXPECT_EQ(map.total_samples(), 3u);
  EXPECT_EQ(map.observed_voxels(), 1u);
  const auto* v = map.at(p);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->samples, 3u);
  EXPECT_EQ(v->ho_triggers, 1u);
  EXPECT_EQ(v->rlf_count, 1u);
  EXPECT_EQ(v->losses, 1u);
  EXPECT_EQ(v->stall_us, 250000u);
  EXPECT_NEAR(v->mean_rsrp_dbm(), -90.0, 1e-9);
  EXPECT_NEAR(v->mean_capacity_mbps(), 40.0 / 3.0, 1e-9);
  EXPECT_NEAR(v->ho_risk(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(v->stall_ms_per_tick(), 250.0 / 3.0, 1e-9);
  // Per-cell split, sorted by id.
  ASSERT_EQ(v->cells.size(), 2u);
  EXPECT_EQ(v->cells[0].cell_id, 3u);
  EXPECT_EQ(v->cells[0].samples, 2u);
  EXPECT_NEAR(v->cells[0].mean_rsrp_dbm(), -95.0, 1e-9);
  EXPECT_NEAR(v->cells[0].var_rsrp_db2(), 25.0, 1e-6);
  EXPECT_EQ(v->cells[1].cell_id, 7u);
  EXPECT_EQ(v->cells[1].samples, 1u);
  EXPECT_NEAR(v->var_rsrp_db2(), 200.0 / 3.0, 1e-6);
}

TEST(RadioMap, MergeRequiresMatchingSpec) {
  radiomap::RadioMap a{small_spec()};
  auto other = small_spec();
  other.nx = 5;
  radiomap::RadioMap b{other};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- canonical JSON ---------------------------------------------------------

TEST(RadioMapJson, RoundTripIsExact) {
  radiomap::RadioMap map{small_spec()};
  map.observe_measurement({5.0, 5.0, 10.0}, 3, -90.25, 12.5, true);
  map.observe_measurement({35.0, 25.0, 30.0}, 9, -101.5, 3.0, false);
  map.observe_stall({15.0, 5.0, 10.0}, 100.5);
  const auto bytes = map.canonical_bytes();
  const auto back = radiomap::radio_map_from_bytes(bytes);
  EXPECT_TRUE(map == back);
  EXPECT_EQ(bytes, back.canonical_bytes());
}

TEST(RadioMapJson, EmptyMapRoundTrips) {
  radiomap::RadioMap map{small_spec()};
  const auto back = radiomap::radio_map_from_bytes(map.canonical_bytes());
  EXPECT_TRUE(map == back);
}

TEST(RadioMapJson, LoaderRejectsMalformedDocuments) {
  radiomap::RadioMap map{small_spec()};
  map.observe_measurement({5.0, 5.0, 10.0}, 3, -90.0, 12.0, false);
  const auto good = map.to_json();

  // Not an object / missing fields / wrong schema.
  EXPECT_THROW(radiomap::radio_map_from_bytes("[]"), std::runtime_error);
  EXPECT_THROW(radiomap::radio_map_from_bytes("{}"), std::runtime_error);
  {
    auto v = good;
    v.set("schema", std::int64_t{99});
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    auto v = good;
    auto spec = v.at("spec");
    spec.set("nx", std::int64_t{0});
    v.set("spec", std::move(spec));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    auto v = good;
    auto spec = v.at("spec");
    spec.set("voxel_z_m", -1.0);
    v.set("spec", std::move(spec));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    // Voxel index out of range.
    auto v = good;
    auto voxels = v.at("voxels");
    auto entry = voxels.items()[0];
    entry.set("i", std::uint64_t{24});
    auto arr = json::Value::array();
    arr.push_back(std::move(entry));
    v.set("voxels", std::move(arr));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    // Duplicate (unsorted) voxel indices.
    auto v = good;
    auto voxels = v.at("voxels");
    auto entry = voxels.items()[0];
    auto dup = entry;
    auto arr = json::Value::array();
    arr.push_back(std::move(entry));
    arr.push_back(std::move(dup));
    v.set("voxels", std::move(arr));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    // All-zero voxel entries are not representable output; reject them.
    auto v = good;
    auto arr = json::Value::array();
    auto entry = json::Value::object();
    entry.set("i", std::uint64_t{0})
        .set("samples", std::uint64_t{0})
        .set("rsrp_milli_sum", std::int64_t{0})
        .set("rsrp_milli_sq_sum", std::uint64_t{0})
        .set("capacity_kbps_sum", std::uint64_t{0})
        .set("ho_triggers", std::uint64_t{0})
        .set("rlf_count", std::uint64_t{0})
        .set("losses", std::uint64_t{0})
        .set("stall_us", std::uint64_t{0})
        .set("cells", json::Value::array());
    arr.push_back(std::move(entry));
    v.set("voxels", std::move(arr));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    // Unsorted cells inside a voxel.
    auto v = good;
    auto voxels = v.at("voxels");
    auto entry = voxels.items()[0];
    auto cells = entry.at("cells");
    auto cell = cells.items()[0];
    auto cells2 = json::Value::array();
    auto dup = cell;
    cells2.push_back(std::move(cell));
    cells2.push_back(std::move(dup));
    entry.set("cells", std::move(cells2));
    auto arr = json::Value::array();
    arr.push_back(std::move(entry));
    v.set("voxels", std::move(arr));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
}

TEST(RadioMapJson, LoaderRejectsOutOfRangeIntegers) {
  radiomap::RadioMap map{small_spec()};
  map.observe_measurement({5.0, 5.0, 10.0}, 3, -90.0, 12.0, false);
  const auto good = map.to_json();
  auto with_voxel_member = [&](const char* key, json::Value value) {
    auto v = good;
    auto entry = v.at("voxels").items()[0];
    entry.set(key, std::move(value));
    auto arr = json::Value::array();
    arr.push_back(std::move(entry));
    v.set("voxels", std::move(arr));
    return v;
  };
  // A negative count and an int64 sum beyond INT64_MAX used to wrap.
  EXPECT_THROW(radiomap::radio_map_from_json(
                   with_voxel_member("samples", std::int64_t{-1})),
               std::runtime_error);
  EXPECT_THROW(radiomap::radio_map_from_json(with_voxel_member(
                   "rsrp_milli_sum", std::uint64_t{9223372036854775808ull})),
               std::runtime_error);
  {
    // 2^22 per axis: the old 64-bit product wrapped to 0 and passed the
    // grid-size cap.
    auto v = good;
    auto spec = v.at("spec");
    for (const char* axis : {"nx", "ny", "nz"}) {
      spec.set(axis, std::uint64_t{1} << 22);
    }
    v.set("spec", std::move(spec));
    v.set("voxels", json::Value::array());
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
  {
    auto v = good;
    auto spec = v.at("spec");
    spec.set("nx", std::uint64_t{1} << 32);
    v.set("spec", std::move(spec));
    EXPECT_THROW(radiomap::radio_map_from_json(v), std::runtime_error);
  }
}

// --- survey trajectory ------------------------------------------------------

TEST(RadioMapSurvey, LawnmowerCoversEveryAltitudeLayerInsideExtent) {
  const auto spec = experiment::default_map_spec();
  const auto traj = radiomap::make_survey_trajectory(spec);
  ASSERT_FALSE(traj.empty());
  std::vector<bool> z_layers(spec.nz, false);
  for (sim::TimePoint t = traj.start(); t <= traj.end();
       t = t + sim::Duration::seconds(1.0)) {
    const auto idx = spec.index_of(traj.position(t));
    ASSERT_TRUE(idx.has_value()) << "survey left the grid extent";
    z_layers[spec.z_of(*idx)] = true;
  }
  // The default ladder {30,60,90,120} mows layers 1..4 of the default
  // 5-layer spec; the takeoff climb crosses layer 0 on the way up, so every
  // layer the planner can score holds samples.
  for (std::uint32_t z = 0; z < spec.nz; ++z) {
    EXPECT_TRUE(z_layers[z]) << "altitude layer " << z << " never surveyed";
  }
}

// --- warm-up map golden pin -------------------------------------------------

// Fixed-seed single-flight urban warm-up map. The pinned digest is over the
// canonical bytes, so ANY byte of the map artifact moving — radio model,
// event stream, sink attribution, JSON encoder — fails here. Refresh per
// docs/TESTING.md if the change is intentional.
TEST(RadioMapGolden, UrbanWarmupSeed7301PinnedBytes) {
  experiment::Scenario base;
  base.env = experiment::Environment::kUrban;
  base.seed = 7301;
  experiment::MapBuildConfig cfg;
  cfg.flights = 1;
  const auto map =
      experiment::build_radio_map(base, experiment::default_map_spec(), cfg);
  EXPECT_EQ(map.observed_voxels(), 129u);
  EXPECT_EQ(map.total_samples(), 3996u);
  const auto bytes = map.canonical_bytes();
  EXPECT_EQ(bytes.size(), 39092u);
  EXPECT_EQ(fnv1a(bytes), 0x15c942a72dd2342aull);

  // And the artifact store round-trips those exact bytes.
  const auto dir = std::filesystem::temp_directory_path() / "rpv_map_store";
  std::filesystem::remove_all(dir);
  const exec::RunArtifactStore store{dir};
  const auto path = store.write_radio_map("pin", "urban", map);
  const auto loaded = exec::RunArtifactStore::load_radio_map(path);
  EXPECT_TRUE(map == loaded);
  EXPECT_EQ(bytes, loaded.canonical_bytes());
  std::filesystem::remove_all(dir);
}

// --- planner ----------------------------------------------------------------

TEST(Planner, EmptyOrColdMapKeepsTheMission) {
  const auto mission = geo::make_flight_profile({0.0, 0.0, 0.0});
  radiomap::RadioMap cold{experiment::default_map_spec()};
  const auto plan = uav::plan_trajectory(mission, cold);
  EXPECT_GT(plan.candidates, 1u);
  EXPECT_EQ(plan.selected, 0u);
  EXPECT_FALSE(plan.replanned);
  EXPECT_EQ(plan.trajectory.waypoints().size(), mission.waypoints().size());
  for (std::size_t i = 0; i < mission.waypoints().size(); ++i) {
    EXPECT_EQ(plan.trajectory.waypoints()[i].pos.z, mission.waypoints()[i].pos.z);
  }
}

TEST(Planner, ReroutesBelowAPoisonedAltitudeBand) {
  // Paint every voxel above 80 m as a stall zone; below stays clean.
  const auto spec = experiment::default_map_spec();
  radiomap::RadioMap map{spec};
  for (std::uint32_t i = 0; i < spec.voxel_count(); ++i) {
    const auto c = spec.center_of(i);
    const bool high = c.z > 80.0;
    for (int k = 0; k < 50; ++k) {
      map.observe_measurement(c, 1, high ? -110.0 : -80.0, high ? 2.0 : 20.0,
                              high);
      if (high) map.observe_stall(c, 40.0);
    }
  }
  const auto mission = geo::make_flight_profile({0.0, 0.0, 0.0});
  const auto plan = uav::plan_trajectory(mission, map);
  EXPECT_TRUE(plan.replanned);
  EXPECT_LT(plan.predicted_stall_ms_selected, plan.predicted_stall_ms_direct);
  EXPECT_GT(plan.deviation_m, 0.0);
  double max_z = 0.0;
  for (const auto& wp : plan.trajectory.waypoints()) {
    max_z = std::max(max_z, wp.pos.z);
  }
  EXPECT_LE(max_z, 80.0 + 1e-9);
}

TEST(Planner, PredictedStallMatchesSampleCostModel) {
  // One uniformly-poisoned map: predicted stall scales with path duration.
  const auto spec = experiment::default_map_spec();
  radiomap::RadioMap map{spec};
  for (std::uint32_t i = 0; i < spec.voxel_count(); ++i) {
    map.observe_stall(spec.center_of(i), 10.0);
    map.observe_measurement(spec.center_of(i), 1, -90.0, 20.0, false);
  }
  geo::Trajectory path;
  path.move_to({5.0, 5.0, 35.0}, 1.0).hover(sim::Duration::seconds(10.0));
  uav::PlannerConfig cfg;
  const double cost = uav::predicted_stall_ms(path, map, cfg);
  // 11 samples x 10 ticks x 10 ms stall/tick.
  EXPECT_NEAR(cost, 11.0 * 10.0 * 10.0, 1e-6);
}

// --- kPlanned scenario policy ----------------------------------------------

TEST(PlannedPolicy, WithoutMapMatchesProactiveByteForByte) {
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.seed = 515;
  s.policy = experiment::Policy::kProactive;
  const auto pro = experiment::run_scenario(s);
  s.policy = experiment::Policy::kPlanned;
  const auto planned = experiment::run_scenario(s);
  EXPECT_EQ(pipeline::report_to_json(pro).dump(),
            pipeline::report_to_json(planned).dump());
}

TEST(PlannedPolicy, WithMapIsDeterministicAndAnnotated) {
  experiment::Scenario base;
  base.env = experiment::Environment::kUrban;
  base.seed = 7301;
  experiment::MapBuildConfig cfg;
  cfg.flights = 1;
  auto map = std::make_shared<radiomap::RadioMap>(
      experiment::build_radio_map(base, experiment::default_map_spec(), cfg));

  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.seed = 7301;
  s.policy = experiment::Policy::kPlanned;
  s.radio_map = map;
  const auto a = experiment::run_scenario(s);
  const auto b = experiment::run_scenario(s);
  EXPECT_EQ(pipeline::report_to_json(a).dump(),
            pipeline::report_to_json(b).dump());
  EXPECT_TRUE(a.planned);
  EXPECT_GT(a.plan_candidates, 1u);
  EXPECT_TRUE(a.prediction.map_prior);
  // Schema v7 planning + map-prior fields survive the JSON round trip.
  const auto back = pipeline::report_from_json(pipeline::report_to_json(a));
  EXPECT_EQ(back.planned, a.planned);
  EXPECT_EQ(back.plan_replanned, a.plan_replanned);
  EXPECT_EQ(back.plan_candidates, a.plan_candidates);
  EXPECT_EQ(back.plan_selected, a.plan_selected);
  EXPECT_EQ(back.plan_deviation_m, a.plan_deviation_m);
  EXPECT_EQ(back.prediction.map_prior, a.prediction.map_prior);
  EXPECT_EQ(back.prediction.map_prior_arms, a.prediction.map_prior_arms);
}

}  // namespace
