#include "experiment/scenario.hpp"

namespace rpv::experiment {

std::string environment_name(Environment e) {
  return std::string{kEnvironmentNames[static_cast<std::size_t>(e)]};
}
std::string mobility_name(Mobility m) {
  return std::string{kMobilityNames[static_cast<std::size_t>(m)]};
}
std::string fault_preset_name(FaultPreset p) {
  return std::string{kFaultPresetNames[static_cast<std::size_t>(p)]};
}

bond::Policy bond_policy_of(Multipath m) {
  switch (m) {
    case Multipath::kFailover: return bond::Policy::kFailover;
    case Multipath::kBondLowLatency: return bond::Policy::kLowLatency;
    case Multipath::kBondBalanced: return bond::Policy::kBalanced;
    case Multipath::kBondHighReliability: return bond::Policy::kHighReliability;
    case Multipath::kNone:
    case Multipath::kDuplicate:
      break;
  }
  return bond::Policy::kDuplicate;
}

fault::FaultSchedule fault_preset_schedule(FaultPreset p) {
  // All presets are fixed data (the chaos preset draws from a pinned seed):
  // the same preset always injects the same faults, keeping campaign cells
  // byte-reproducible. Times sit inside the 360 s flight/static horizon.
  fault::FaultSchedule fs;
  switch (p) {
    case FaultPreset::kNone:
      break;
    case FaultPreset::kRlfStorm:
      fs.rlf(60.0).rlf(150.0).rlf(240.0);
      break;
    case FaultPreset::kCapacityDips:
      fs.capacity_collapse(90.0, 3.0, 0.1)
          .capacity_collapse(180.0, 4.0, 0.05)
          .capacity_collapse(270.0, 3.0, 0.1);
      break;
    case FaultPreset::kWanOutage:
      fs.wan_outage(150.0, 2.0).wan_outage(240.0, 4.0);
      break;
    case FaultPreset::kChaos:
      fs = fault::FaultSchedule::random(0xB0DD5EEDULL,
                                        sim::Duration::seconds(360.0),
                                        /*mean_gap_sec=*/40.0,
                                        /*mean_duration_sec=*/2.0);
      break;
  }
  return fs;
}

std::string scenario_label(const Scenario& s) {
  std::string label = environment_name(s.env) + "-" +
                      mobility_name(s.mobility) + "-" + pipeline::cc_name(s.cc);
  if (s.tech == AccessTech::k5gSa) label += "-5gsa";
  if (s.policy != Policy::kReactive) {
    label += '-';
    label += kPolicyNames[static_cast<std::size_t>(s.policy)];
  }
  if (s.multipath != Multipath::kNone) {
    label += '-';
    label += bond::policy_suffix(bond_policy_of(s.multipath)).substr(1);
  }
  if (s.path_set == PathSet::kThreeWay) label += "-sat";
  if (s.path_set == PathSet::kThreeWayMesh) label += "-sat-mesh";
  if (s.fault_preset != FaultPreset::kNone) {
    label += '-';
    label += fault_preset_name(s.fault_preset);
  }
  if (s.aqm) label += "-aqm";
  if (s.daps) label += "-daps";
  return label;
}

double static_bitrate_bps(Environment env) {
  // Paper §3.2: 25 Mbps urban, 8 Mbps rural, from trial runs.
  return env == Environment::kUrban ? 25e6 : 8e6;
}

pipeline::SessionConfig make_session_config(const Scenario& s) {
  pipeline::SessionConfig cfg;
  cfg.cc = s.cc;
  pipeline::apply_cc_settings(cfg);
  cfg.seed = s.seed;
  cfg.static_bitrate_bps = static_bitrate_bps(s.env);
  cfg.receiver.rfc8888_ack_window = s.rfc8888_ack_window;
  cfg.receiver.jitter.drop_on_latency = s.drop_on_latency;
  cfg.link.queue.aqm_enabled = s.aqm;
  cfg.link.handover.make_before_break = s.daps;
  cfg.probe_interval = s.probe_interval;
  cfg.fec_group_size = s.fec_group_size;
  cfg.c2.enabled = s.c2;
  cfg.faults = s.faults;
  const auto preset_schedule = fault_preset_schedule(s.fault_preset);
  for (const auto& ev : preset_schedule.events()) {
    cfg.faults.add(ev);
  }
  cfg.faults_on_link_b = s.faults_on_both_operators;
  cfg.resilience = s.resilience;
  cfg.receiver.model_reference_loss = s.model_reference_loss;
  cfg.predict.proactive = (s.policy != Policy::kReactive);
  cfg.predict.map_prior = s.radio_map.get();
  cfg.obs.enabled = s.observe;

  if (s.multipath != Multipath::kNone && s.path_set != PathSet::kOperatorPair) {
    cfg.sat.enabled = true;
    if (s.path_set == PathSet::kThreeWayMesh) {
      cfg.sat.mesh_enabled = true;
      // Hop count from scenario geometry: the sparse rural corridor needs a
      // longer relay chain than the dense urban cell grid.
      cfg.sat.mesh.hops = (s.env == Environment::kUrban) ? 2 : 4;
    }
  }

  auto& radio = cfg.link.radio;
  switch (s.env) {
    case Environment::kUrban:
      // Dense deployment, abundant uplink: up to ~40 Mbps at good SINR.
      radio.peak_capacity_mbps = 44.0;
      radio.exponent_ground = 3.5;   // street-level clutter
      radio.shadowing_stddev_db = 7.0;
      radio.interference_load = 0.008;
      // Packet loss above ~80 m is an urban phenomenon (paper §4.2.1).
      cfg.link.loss.altitude_boost = 0.4;
      cfg.link.loss.stress_boost = 110.0;
      break;
    case Environment::kRuralP1:
      // Sparse sites far away: capacity limited to ~8-12 Mbps, fluctuating.
      radio.peak_capacity_mbps = 15.0;
      radio.exponent_ground = 2.9;   // open space
      radio.shadowing_stddev_db = 6.5;
      radio.interference_load = 0.012;
      break;
    case Environment::kRuralP2:
      // Competing operator: denser rural deployment, more capacity.
      radio.peak_capacity_mbps = 30.0;
      radio.exponent_ground = 2.9;
      radio.shadowing_stddev_db = 5.5;
      radio.interference_load = 0.015;
      break;
  }

  if (s.tech == AccessTech::k5gSa) {
    // 5G stand-alone: shorter scheduling latency, mostly make-before-break
    // mobility (no HO latency spikes per the studies the paper cites), and a
    // substantially larger uplink.
    cfg.link.uplink_access_latency = sim::Duration::millis(4);
    cfg.link.uplink_access_jitter = sim::Duration::millis(1);
    cfg.link.downlink_latency = sim::Duration::millis(3);
    cfg.link.handover.make_before_break = true;
    cfg.link.het.bulk_median_ms = 10.0;
    cfg.link.het.outlier_prob_air = 0.04;
    cfg.link.het.outlier_prob_ground = 0.01;
    radio.peak_capacity_mbps *= 2.2;
    radio.operator_cap_mbps = 120.0;
  }
  return cfg;
}

cellular::CellLayout make_layout(const Scenario& s, sim::Rng& rng) {
  switch (s.env) {
    case Environment::kUrban: return cellular::make_urban_layout(rng);
    case Environment::kRuralP1: return cellular::make_rural_layout_p1(rng);
    case Environment::kRuralP2: return cellular::make_rural_layout_p2(rng);
  }
  return cellular::make_urban_layout(rng);
}

geo::Trajectory make_trajectory(const Scenario& s, sim::Rng& rng) {
  const geo::Vec3 origin{0.0, 0.0, 0.0};
  switch (s.mobility) {
    case Mobility::kAir:
      return geo::make_flight_profile(origin);
    case Mobility::kGround:
      return geo::make_ground_profile(origin, rng);
    case Mobility::kStatic:
      return geo::make_static_profile({30.0, 30.0, 1.5},
                                      sim::Duration::seconds(360.0));
  }
  return geo::make_flight_profile(origin);
}

geo::Trajectory make_trajectory(const Scenario& s, sim::Rng& rng,
                                const geo::Vec3& origin, sim::Duration horizon) {
  const auto fallback = sim::Duration::seconds(360.0);
  switch (s.mobility) {
    case Mobility::kAir:
      return geo::make_flight_profile({origin.x, origin.y, 0.0})
          .truncated(horizon);
    case Mobility::kGround:
      return geo::make_ground_profile({origin.x, origin.y, 1.5}, rng)
          .truncated(horizon);
    case Mobility::kStatic:
      return geo::make_static_profile(
          origin, horizon > sim::Duration::zero() ? horizon : fallback);
  }
  return geo::make_flight_profile({origin.x, origin.y, 0.0}).truncated(horizon);
}

sim::Rng scenario_rng(std::uint64_t seed) {
  return sim::Rng{seed * 0x9E3779B97F4A7C15ULL + 0x1234567};
}

pipeline::SessionReport run_scenario(const Scenario& s) {
  return run_scenario(s, nullptr);
}

namespace {

// Under kPlanned with a warm map, replace the mission trajectory with the
// planner's choice. Returns the plan (identity when planning did not run) so
// the caller can annotate the report and publish the kReplan event.
uav::PlanResult replan_if_planned(const Scenario& s,
                                  geo::Trajectory& trajectory) {
  uav::PlanResult plan;
  if (s.policy == Policy::kPlanned && s.radio_map != nullptr &&
      !s.radio_map->empty()) {
    plan = uav::plan_trajectory(trajectory, *s.radio_map);
    trajectory = plan.trajectory;
  }
  return plan;
}

void annotate_planning(pipeline::SessionReport& r, const Scenario& s,
                       const uav::PlanResult& plan) {
  if (s.policy != Policy::kPlanned) return;
  r.planned = plan.candidates > 0;
  r.plan_replanned = plan.replanned;
  r.plan_candidates = plan.candidates;
  r.plan_selected = plan.selected;
  r.plan_predicted_stall_ms_direct = plan.predicted_stall_ms_direct;
  r.plan_predicted_stall_ms_selected = plan.predicted_stall_ms_selected;
  r.plan_deviation_m = plan.deviation_m;
}

void publish_replan(obs::EventBus& bus, const geo::Trajectory& trajectory,
                    const uav::PlanResult& plan) {
  if (plan.candidates == 0) return;
  bus.publish(obs::Component::kPlanner, obs::EventKind::kReplan,
              trajectory.start(),
              obs::ReplanPayload{plan.candidates, plan.selected,
                                 plan.predicted_stall_ms_direct,
                                 plan.predicted_stall_ms_selected,
                                 plan.deviation_m});
}

}  // namespace

pipeline::SessionReport run_scenario(const Scenario& s,
                                     obs::EventSink* extra_sink) {
  auto rng = scenario_rng(s.seed);
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(make_layout(s, rng));
  std::string env_label = environment_name(s.env);
  if (s.multipath != Multipath::kNone) {
    // Bonded runs pair the scenario's operator with the environment's
    // competitor: rural P1 <-> P2 (the paper's Fig. 10 operator pair), urban
    // with a second independent urban deployment.
    Scenario other = s;
    switch (s.env) {
      case Environment::kRuralP1: other.env = Environment::kRuralP2; break;
      case Environment::kRuralP2: other.env = Environment::kRuralP1; break;
      case Environment::kUrban: break;  // second urban layout, fresh draw
    }
    layouts.push_back(make_layout(other, rng));
    env_label += '+';
    env_label += environment_name(other.env);
    if (s.path_set == PathSet::kThreeWay) env_label += "+sat";
    if (s.path_set == PathSet::kThreeWayMesh) env_label += "+sat+mesh";
  }
  auto trajectory = make_trajectory(s, rng);
  const auto plan = replan_if_planned(s, trajectory);
  pipeline::Session session{make_session_config(s), std::move(layouts),
                            &trajectory,
                            env_label + "/" + mobility_name(s.mobility),
                            bond_policy_of(s.multipath)};
  if (extra_sink != nullptr) session.subscribe(extra_sink);
  publish_replan(session.observer(), trajectory, plan);
  auto r = session.run();
  annotate_planning(r, s, plan);
  return r;
}

}  // namespace rpv::experiment
