// FleetEngine — hundreds to tens of thousands of concurrent UAV sessions
// over one SharedDeployment, in one process.
//
// Execution model: sessions are pinned to fixed shards (shard = a contiguous
// slice of kShardSize session indices — a function of fleet size only, never
// of worker count). Each epoch, every shard advances its sessions'
// simulators to the epoch boundary in parallel; at the barrier the
// deployment folds everyone's serving cell into the per-cell load table the
// next epoch reads. Because sessions only observe cell load frozen at the
// last barrier, the event sequence — and thus every metric — is
// byte-identical for any --jobs value.
//
// Aggregation is streaming: each shard owns one MetricsRegistry (plus the
// contention histograms) subscribed to its sessions' event buses; shards
// merge in shard-index order into a single fixed-size FleetReport. No
// per-session artifact exists unless keep_reports asks for one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "fleet/fleet_report.hpp"
#include "fleet/shared_deployment.hpp"
#include "geo/trajectory.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "pipeline/session.hpp"

namespace rpv::fleet {

// One fleet scenario: `sessions` UAVs flying the base scenario's mission
// family concurrently over one shared deployment of the base environment.
struct FleetScenario {
  // Environment, congestion controller, mobility, policy, seed. The seed
  // seeds both the shared layout draw and the per-session derivation
  // (base.seed + i * 7919, the campaign convention). multipath must be
  // kNone: a fleet session camps on exactly one deployment.
  experiment::Scenario base;
  int sessions = 100;
  // Mission length per UAV; zero keeps each mobility profile's native
  // duration (~360 s). Fleet sweeps default to shorter missions.
  double horizon_sec = 60.0;
  // Cross-shard cell-load exchange tick.
  double epoch_sec = 1.0;
};

// The base scenario's experiment::scenario_label plus "-n<sessions>"
// ("urban-static-gcc-n64").
[[nodiscard]] std::string fleet_label(const FleetScenario& s);

// Everything a fleet run derives deterministically from its scenario before
// any simulation happens: the shared layout (one rng draw from the base
// seed, the run_scenario derivation), per-session seeds (base + i * 7919),
// fully wired session configs, and per-session trajectories launched from
// origins sampled across the deployment's footprint. Exposed so the
// fleet-of-one check can rebuild session 0's exact inputs and run it
// standalone.
struct FleetMission {
  std::string label;
  cellular::CellLayout layout;
  std::string environment;  // Session environment string, shared by all
  std::vector<std::uint64_t> seeds;
  std::vector<pipeline::SessionConfig> configs;
  std::vector<geo::Trajectory> trajectories;
};

[[nodiscard]] FleetMission plan_fleet(const FleetScenario& s);

struct FleetEngineConfig {
  int jobs = 0;  // worker threads; <= 0 means one per hardware thread
  // Retain every session's full SessionReport next to the fleet report.
  // Only sane for small fleets (the N=1 baseline-equality check); the
  // streaming path never materializes them.
  bool keep_reports = false;
};

struct FleetRunResult {
  FleetReport report;
  double wall_seconds = 0.0;  // not serialized — wall clock is host-dependent
  int jobs = 0;               // resolved worker count used
  std::vector<pipeline::SessionReport> session_reports;  // keep_reports only
};

class FleetEngine {
 public:
  // Sessions per shard. Fixed so the shard partition — and with it the
  // per-shard merge order — depends only on the fleet size.
  static constexpr std::size_t kShardSize = 16;

  explicit FleetEngine(FleetEngineConfig cfg = {}) : cfg_{cfg} {}

  [[nodiscard]] FleetRunResult run(const FleetScenario& scenario) const;

 private:
  FleetEngineConfig cfg_;
};

}  // namespace rpv::fleet
