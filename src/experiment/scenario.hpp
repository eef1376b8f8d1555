// Scenario presets reproducing the paper's measurement campaign matrix:
// {urban, rural} x {air, ground} x {GCC, SCReAM, static} x {operator P1, P2}.
//
// Environment tuning targets (from the paper):
//  * urban (P1/P2 similar): uplink up to ~40 Mbps, dense cells, static
//    baseline at 25 Mbps;
//  * rural P1 (default operator): sparse cells, fluctuating 8-12 Mbps
//    uplink, static baseline at 8 Mbps;
//  * rural P2 (competing operator): denser deployment, more capacity and
//    more handovers (Fig. 10).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "bond/policy.hpp"
#include "cellular/base_station.hpp"
#include "fault/fault_schedule.hpp"
#include "geo/flight_profiles.hpp"
#include "pipeline/session.hpp"
#include "radiomap/radio_map.hpp"
#include "uav/planner.hpp"

namespace rpv::experiment {

// Each enum's names are one table, indexed by value: what environment_name
// & co. return and what the artifact manifest stores.
template <std::size_t N>
using Names = std::array<std::string_view, N>;

enum class Environment { kUrban, kRuralP1, kRuralP2 };
inline constexpr Names<3> kEnvironmentNames = {"urban", "rural-p1", "rural-p2"};
enum class Mobility { kAir, kGround, kStatic };
inline constexpr Names<3> kMobilityNames = {"air", "ground", "static"};
// Access technology: the campaign ran on LTE; the 5G-SA preset models the
// stand-alone deployments the paper's Section 5 expects to remove the
// HO latency spikes (shorter access latency, make-before-break mobility,
// larger uplink).
enum class AccessTech { kLte, k5gSa };
inline constexpr Names<2> kAccessTechNames = {"lte", "5g-sa"};
// Adaptation policy: reactive is the paper's measured pipeline (CC reacts
// after the fact); proactive turns on the rpv::predict HO-aware adapter
// (pre-HO bitrate dip, keyframe deferral, post-HO flush); planned
// additionally replans the flight trajectory through the scenario's radio
// map (rpv::uav) before takeoff — the closed perception→planning loop.
// kPlanned without a radio_map behaves like kProactive.
enum class Policy { kReactive, kProactive, kPlanned };
inline constexpr Names<3> kPolicyNames = {"reactive", "proactive", "planned"};

// Multi-operator bonding (rpv::bond). kNone runs one operator; everything
// else runs the Session over the environment's operator pair under the named
// bond::Policy.
enum class Multipath {
  kNone,
  kDuplicate,
  kFailover,
  kBondLowLatency,
  kBondBalanced,
  kBondHighReliability,
};
inline constexpr Names<6> kMultipathNames = {
    "none",          "duplicate",     "failover", "bond-low-latency",
    "bond-balanced", "bond-high-reliability"};

// Canned fault schedules for the robustness campaigns, so grid cells can
// name a fault pattern instead of hand-building a schedule per run.
enum class FaultPreset { kNone, kRlfStorm, kCapacityDips, kWanOutage, kChaos };
inline constexpr Names<5> kFaultPresetNames = {"none", "rlf-storm", "cap-dips",
                                               "wan-outage", "chaos"};

// Which bonded paths a multipath scenario attaches (rpv::sat). kOperatorPair
// is the historical two cellular operators; kThreeWay adds the LEO satellite
// path; kThreeWayMesh additionally chains in the aerial mesh relay. Ignored
// when multipath == kNone.
enum class PathSet { kOperatorPair, kThreeWay, kThreeWayMesh };
inline constexpr Names<3> kPathSetNames = {"operator-pair", "three-way",
                                           "three-way-mesh"};

[[nodiscard]] std::string environment_name(Environment env);
[[nodiscard]] std::string mobility_name(Mobility m);
[[nodiscard]] std::string fault_preset_name(FaultPreset p);
// The bond policy a non-kNone Multipath maps onto.
[[nodiscard]] bond::Policy bond_policy_of(Multipath m);
// The schedule a preset expands to (kNone -> empty).
[[nodiscard]] fault::FaultSchedule fault_preset_schedule(FaultPreset p);

// The static-baseline bitrate the paper hand-picked per environment.
[[nodiscard]] double static_bitrate_bps(Environment env);

struct Scenario {
  Environment env = Environment::kUrban;
  Mobility mobility = Mobility::kAir;
  pipeline::CcKind cc = pipeline::CcKind::kGcc;
  std::uint64_t seed = 1;
  // Optional probe traffic; used by the latency/RTT benches.
  sim::Duration probe_interval = sim::Duration::zero();
  // Override the RFC 8888 ack window (paper default 64; mitigation 256).
  int rfc8888_ack_window = 256;
  // Appendix A.4 jitter-buffer variant.
  bool drop_on_latency = false;
  // CoDel-style AQM on the deep uplink buffer (Section 5 bufferbloat
  // mitigation).
  bool aqm = false;
  // DAPS make-before-break handover (Section 5); 5G SA turns it on anyway.
  bool daps = false;
  // LTE (the paper's campaign) or 5G stand-alone (its Section 5 outlook).
  AccessTech tech = AccessTech::kLte;
  // XOR FEC group size; 0 disables (Section 5 / reference [9] extension).
  int fec_group_size = 0;
  // Enable the command/telemetry channel of the RP scenario (Fig. 1).
  bool c2 = false;
  // Scripted fault injection (RLF, blackouts, capacity collapse, WAN
  // outages); empty injects nothing. Composable with every scenario above.
  fault::FaultSchedule faults{};
  // Named fault pattern appended to `faults` (grid-friendly alternative to
  // hand-building a schedule).
  FaultPreset fault_preset = FaultPreset::kNone;
  // Replay the fault schedule on BOTH operators of a multipath run — the
  // simultaneous-degradation case the sat path is there to mask. Single-path
  // runs ignore it.
  bool faults_on_both_operators = false;
  // Multi-operator bonding; anything but kNone streams over the paired
  // operator layouts through a bond::LinkManager.
  Multipath multipath = Multipath::kNone;
  // Extra bonded paths for multipath runs: LEO satellite (kThreeWay) and
  // aerial mesh (kThreeWayMesh) on top of the operator pair.
  PathSet path_set = PathSet::kOperatorPair;
  // End-to-end resilience stack (sender watchdog + ladder, receiver PLI).
  bool resilience = false;
  // HO-aware proactive adaptation (rpv::predict); reactive reproduces the
  // paper's measured behaviour.
  Policy policy = Policy::kReactive;
  // Learned 3D radio map (rpv::radiomap). When set it always feeds the
  // HandoverPredictor's spatial prior (instrumented under every policy);
  // under kPlanned it additionally drives the rpv::uav trajectory planner.
  // Scenarios without a map are byte-identical to their pre-radiomap runs.
  std::shared_ptr<const radiomap::RadioMap> radio_map{};
  // Decoder reference-loss modeling; enable in BOTH arms of a resilience
  // comparison so keyframe recovery is measured fairly.
  bool model_reference_loss = false;
  // Attach the rpv::obs recorder + metrics registry: the run's report grows
  // the schema-v3 obs block and the artifact store writes a sibling
  // events.jsonl next to the report.
  bool observe = false;

  // Field-wise; a radio map compares by pointer identity.
  bool operator==(const Scenario&) const = default;
};

// The name of a scenario in grids, fleets and artifact paths:
// "<env>-<mobility>-<cc>", then "-5gsa", the adaptation policy
// ("-proactive", "-planned"), the bond policy ("-mpdup", "-bond-hr", ...:
// bond::policy_suffix with a dash), the path set ("-sat", "-sat-mesh") and
// the fault preset ("-rlf-storm", ...), then "-aqm" and "-daps", each only
// when it differs from the default. The seed is not part of it.
[[nodiscard]] std::string scenario_label(const Scenario& s);

// The stream a flight draws its layouts and trajectory from: the seed
// whitened so neighbouring seeds start far apart. run_scenario, the radio-map
// warm-ups and the fleet planner share it, so one seed means one layout.
[[nodiscard]] sim::Rng scenario_rng(std::uint64_t seed);

// Fully wired session config for a scenario (link, radio, video, CC).
[[nodiscard]] pipeline::SessionConfig make_session_config(const Scenario& s);

// The layout of the scenario's environment.
[[nodiscard]] cellular::CellLayout make_layout(const Scenario& s, sim::Rng& rng);

// The motion profile: the Appendix A.2 flight, the motorbike ground run, or
// a static hold.
[[nodiscard]] geo::Trajectory make_trajectory(const Scenario& s, sim::Rng& rng);

// The same profiles launched from an arbitrary origin with a bounded
// mission horizon (zero keeps each profile's native duration). Static
// missions hover at `origin` (including its altitude); air and ground
// missions start there and are truncated to the horizon. rpv::fleet places
// hundreds of UAVs across one deployment with this.
[[nodiscard]] geo::Trajectory make_trajectory(const Scenario& s, sim::Rng& rng,
                                              const geo::Vec3& origin,
                                              sim::Duration horizon);

// Run one scenario end to end.
[[nodiscard]] pipeline::SessionReport run_scenario(const Scenario& s);

// Same, with an extra event sink subscribed to the session's bus(es) before
// the run — the streaming-aggregation path: a campaign folds per-run
// MetricsRegistry sinks without any per-run report JSON. `extra_sink` may be
// null (plain run_scenario behavior).
[[nodiscard]] pipeline::SessionReport run_scenario(const Scenario& s,
                                                   obs::EventSink* extra_sink);

}  // namespace rpv::experiment
