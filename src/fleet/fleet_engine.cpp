#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "exec/parallel_for.hpp"
#include "sim/validate.hpp"

namespace rpv::fleet {

namespace {

void validate_scenario(const FleetScenario& s) {
  rpv::validate(s.sessions > 0, "FleetScenario: sessions must be positive");
  rpv::validate(s.epoch_sec > 0.0, "FleetScenario: epoch_sec must be positive");
  rpv::validate(s.horizon_sec >= 0.0,
                "FleetScenario: horizon_sec must not be negative");
  rpv::validate(s.base.multipath == experiment::Multipath::kNone,
                "FleetScenario: fleet sessions are single-path (multipath "
                "must be kNone)");
}

// Hover band of static missions; air and ground missions take their
// profiles' own altitudes.
constexpr double kMinAltitudeM = 25.0;
constexpr double kMaxAltitudeM = 90.0;

}  // namespace

std::string fleet_label(const FleetScenario& s) {
  return experiment::scenario_label(s.base) + "-n" + std::to_string(s.sessions);
}

FleetMission plan_fleet(const FleetScenario& s) {
  validate_scenario(s);
  FleetMission m;
  m.label = fleet_label(s);
  m.environment = experiment::environment_name(s.base.env) + "/fleet-" +
                  experiment::mobility_name(s.base.mobility);

  // One rng stream drives the shared layout and then every placement draw,
  // all keyed off the base seed alone: the run_scenario stream, so a fleet
  // shares its layout draw with the equivalent standalone scenario.
  auto rng = experiment::scenario_rng(s.base.seed);
  m.layout = experiment::make_layout(s.base, rng);

  // Place missions inside the deployment footprint, pulled 10% toward the
  // center so edge UAVs still have a serving candidate behind them.
  double min_x = std::numeric_limits<double>::max();
  double min_y = std::numeric_limits<double>::max();
  double max_x = std::numeric_limits<double>::lowest();
  double max_y = std::numeric_limits<double>::lowest();
  for (const auto& bs : m.layout.cells) {
    min_x = std::min(min_x, bs.pos.x);
    min_y = std::min(min_y, bs.pos.y);
    max_x = std::max(max_x, bs.pos.x);
    max_y = std::max(max_y, bs.pos.y);
  }
  const double cx = 0.5 * (min_x + max_x), cy = 0.5 * (min_y + max_y);
  const double hx = 0.45 * (max_x - min_x), hy = 0.45 * (max_y - min_y);

  const auto horizon = sim::Duration::seconds(s.horizon_sec);
  const auto n = static_cast<std::size_t>(s.sessions);
  m.seeds.reserve(n);
  m.configs.reserve(n);
  m.trajectories.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = s.base.seed + static_cast<std::uint64_t>(i) * 7919;
    const geo::Vec3 origin{cx + rng.uniform(-hx, hx), cy + rng.uniform(-hy, hy),
                           rng.uniform(kMinAltitudeM, kMaxAltitudeM)};
    experiment::Scenario scn = s.base;
    scn.seed = seed;
    // The fleet aggregates through its own shard registries; per-session
    // ring recorders would cost memory per UAV for nothing.
    scn.observe = false;
    auto session_rng = experiment::scenario_rng(seed);
    m.seeds.push_back(seed);
    m.trajectories.push_back(
        experiment::make_trajectory(scn, session_rng, origin, horizon));
    m.configs.push_back(experiment::make_session_config(scn));
  }
  return m;
}

FleetRunResult FleetEngine::run(const FleetScenario& scenario) const {
  const auto wall_start = std::chrono::steady_clock::now();
  auto mission = plan_fleet(scenario);
  const std::size_t n = mission.seeds.size();
  const std::size_t num_shards = (n + kShardSize - 1) / kShardSize;

  SharedDeployment dep{mission.layout};

  struct SessionState {
    std::unique_ptr<pipeline::Session> session;
    std::unique_ptr<obs::FunctionSink> tap;
    int slot = 0;
    sim::TimePoint end;
  };
  struct ShardAgg {
    obs::MetricsRegistry registry;
    obs::Histogram owd_contended = obs::make_owd_histogram("owd_contended_ms");
    obs::Histogram owd_clean = obs::make_owd_histogram("owd_clean_ms");
    obs::Histogram stall_contended =
        obs::make_stall_histogram("stall_contended_ms");
    obs::Histogram stall_clean = obs::make_stall_histogram("stall_clean_ms");
  };
  std::vector<SessionState> states(n);
  std::vector<ShardAgg> shards(num_shards);

  // Serial construction keeps every rng draw and t=0 event publication in
  // session-index order. No load provider has committed anything yet, so
  // each session's initial capacity refresh sees a full share.
  for (std::size_t i = 0; i < n; ++i) {
    auto& st = states[i];
    st.session = std::make_unique<pipeline::Session>(
        mission.configs[i], mission.layout, &mission.trajectories[i],
        mission.environment);
    st.end = st.session->drain_end();
    st.slot = dep.attach();
    auto& agg = shards[i / kShardSize];
    auto* link = &st.session->link();
    st.tap = std::make_unique<obs::FunctionSink>(
        obs::kind_bit(obs::EventKind::kStall) |
            obs::kind_bit(obs::EventKind::kPacketReceived),
        [&dep, &agg, link](const obs::Event& e) {
          const bool contended = dep.active_users(link->serving_cell()) > 1;
          if (e.kind == obs::EventKind::kStall) {
            if (const auto* p = std::get_if<obs::StallPayload>(&e.payload)) {
              (contended ? agg.stall_contended : agg.stall_clean)
                  .add(p->duration_ms);
            }
          } else if (const auto* p =
                         std::get_if<obs::PacketPayload>(&e.payload)) {
            (contended ? agg.owd_contended : agg.owd_clean).add(p->owd_ms);
          }
        });
    st.session->observer().subscribe(&agg.registry);
    st.session->observer().subscribe(st.tap.get());
    st.session->link().set_load_provider(&dep);
    st.session->begin();
    dep.report(st.slot, st.session->link().serving_cell(), /*active=*/true);
  }
  // Everyone camps somewhere before the first epoch: a 1000-UAV fleet is
  // contended from its first scheduled bit, not after a grace epoch.
  dep.commit_epoch();

  sim::TimePoint global_end = sim::TimePoint::origin();
  for (const auto& st : states) global_end = std::max(global_end, st.end);
  const auto epoch = sim::Duration::seconds(scenario.epoch_sec);

  // The sharded epoch loop. Within an epoch every shard only touches its
  // own sessions, its own aggregation state, and its own deployment slots;
  // cross-session state (the load table) is frozen. The barrier then
  // recomputes the table with an order-independent integer fold.
  sim::TimePoint t = sim::TimePoint::origin();
  bool final_epoch = false;
  while (!final_epoch) {
    t = t + epoch;
    final_epoch = t >= global_end;
    exec::parallel_for_index(num_shards, cfg_.jobs, [&](std::size_t si) {
      const std::size_t lo = si * kShardSize;
      const std::size_t hi = std::min(lo + kShardSize, n);
      for (std::size_t i = lo; i < hi; ++i) {
        auto& st = states[i];
        st.session->simulator().run_until(std::min(t, st.end));
        dep.report(st.slot, st.session->link().serving_cell(),
                   t < mission.trajectories[i].end());
      }
    });
    dep.commit_epoch();
  }

  FleetRunResult result;
  result.jobs = exec::resolve_jobs(cfg_.jobs);
  auto& rep = result.report;
  rep.label = mission.label;
  rep.sessions = scenario.sessions;
  rep.horizon_sec = scenario.horizon_sec;
  rep.epoch_sec = scenario.epoch_sec;

  // Fold shards in shard-index order (merge is associative, so the result
  // is independent of which worker ran which shard).
  obs::MetricsRegistry merged;
  for (const auto& agg : shards) {
    merged.merge(agg.registry);
    rep.owd_contended_ms.merge(agg.owd_contended);
    rep.owd_clean_ms.merge(agg.owd_clean);
    rep.stall_contended_ms.merge(agg.stall_contended);
    rep.stall_clean_ms.merge(agg.stall_clean);
  }
  rep.metrics = merged.summary();

  double goodput_sum = 0.0;
  double goodput_min = std::numeric_limits<double>::max();
  double goodput_max = std::numeric_limits<double>::lowest();
  double stall_ms_sum = 0.0;
  if (cfg_.keep_reports) result.session_reports.reserve(n);
  for (auto& st : states) {
    auto r = st.session->collect();
    rep.total_events += st.session->simulator().executed_events();
    goodput_sum += r.avg_goodput_mbps;
    goodput_min = std::min(goodput_min, r.avg_goodput_mbps);
    goodput_max = std::max(goodput_max, r.avg_goodput_mbps);
    rep.total_stalls += r.stall_duration_ms.size();
    for (const double d : r.stall_duration_ms) stall_ms_sum += d;
    rep.packets_sent += r.packets_sent;
    rep.packets_received += r.packets_received;
    if (cfg_.keep_reports) result.session_reports.push_back(std::move(r));
    st.session.reset();
    st.tap.reset();
  }
  rep.mean_goodput_mbps = goodput_sum / static_cast<double>(n);
  rep.min_goodput_mbps = goodput_min;
  rep.max_goodput_mbps = goodput_max;
  rep.mean_stall_ms_per_session = stall_ms_sum / static_cast<double>(n);

  rep.cell_peak_load.reserve(dep.layout().cells.size());
  for (std::size_t i = 0; i < dep.layout().cells.size(); ++i) {
    rep.cell_peak_load.push_back(
        {dep.layout().cells[i].cell_id, dep.peaks()[i]});
  }
  rep.peak_cell_load = dep.peak_cell_load();

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace rpv::fleet
