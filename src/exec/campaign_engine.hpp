// Parallel campaign execution.
//
// The paper's figures aggregate 130 measurement runs over ~90 flights; every
// run is an independent simulation, so a campaign is embarrassingly parallel.
// The engine shards work at run granularity across `jobs` workers
// (exec::parallel_for_index):
//
//   * run_scenarios — the core primitive: N fully-specified scenarios in,
//     N reports out, result i always belonging to scenario i;
//   * run           — an experiment::Campaign: `runs` seeds derived from
//     its base seed (campaign_seeds);
//   * run_grid      — a cross product of scenario axes (environment x
//     mobility x congestion controller x access tech), all cells' runs
//     flattened into one task list so stragglers in one cell overlap with
//     work from the next.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "pipeline/report.hpp"

namespace rpv::exec {

struct EngineConfig {
  int jobs = 0;  // worker threads; <= 0 means one per hardware thread
};

// One point of a scenario grid: its experiment::scenario_label
// ("urban-air-gcc", "rural-p1-air-static-bond-hr-rlf-storm") plus the fully
// configured scenario it denotes (seed still unset; the engine derives one
// per run).
struct GridCell {
  std::string label;
  experiment::Scenario scenario;
};

// Cross-product axes. Empty axes collapse to the base scenario's value, so a
// grid over {envs} x {ccs} leaves mobility/tech untouched. Every axis has a
// default initializer, so a designated initializer may name only some.
struct GridAxes {
  std::vector<experiment::Environment> envs{};
  std::vector<experiment::Mobility> mobilities{};
  std::vector<pipeline::CcKind> ccs{};
  std::vector<experiment::AccessTech> techs{};
  // Reactive vs. proactive (rpv::predict) vs. planned (rpv::uav) adaptation.
  // Labels stay unchanged for kReactive cells; kProactive cells gain a
  // "-proactive" suffix, kPlanned cells "-planned".
  std::vector<experiment::Policy> policies{};
  // Multi-operator bonding (rpv::bond). kNone keeps the single-path Session
  // and an unchanged label; every other value gains a policy suffix
  // ("-mpdup", "-bond-hr", ...).
  std::vector<experiment::Multipath> multipaths{};
  // Bonded path sets (rpv::sat). kOperatorPair keeps the label; kThreeWay
  // gains "-sat", kThreeWayMesh gains "-sat-mesh". Only meaningful on
  // multipath cells; kNone cells ignore the value.
  std::vector<experiment::PathSet> path_sets{};
  // Named fault patterns. kNone cells keep the label; others gain the preset
  // suffix ("-rlf-storm", "-chaos", ...).
  std::vector<experiment::FaultPreset> fault_presets{};
};

// Expand axes against a base scenario into labeled cells, in axis-major
// order (env, then mobility, then cc, then tech, then policy, then
// multipath, then path set, then fault preset). Throws std::invalid_argument
// when the expansion is empty.
[[nodiscard]] std::vector<GridCell> expand_grid(
    const GridAxes& axes, const experiment::Scenario& base = {});

struct CampaignResult {
  std::vector<std::uint64_t> seeds;  // seeds[i] produced reports[i]
  std::vector<pipeline::SessionReport> reports;
  double wall_seconds = 0.0;
};

struct GridCellResult {
  GridCell cell;
  std::vector<std::uint64_t> seeds;
  std::vector<pipeline::SessionReport> reports;
};

struct GridResult {
  std::vector<GridCellResult> cells;
  double wall_seconds = 0.0;
  int jobs = 0;  // resolved worker count used
};

// The per-run seeds a campaign expands to: base seed + i * 7919.
[[nodiscard]] std::vector<std::uint64_t> campaign_seeds(
    const experiment::Campaign& c);

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineConfig cfg = {}) : cfg_{cfg} {}

  [[nodiscard]] int jobs() const;

  // Run every scenario; reports[i] is scenario i's, regardless of worker
  // count or completion order.
  [[nodiscard]] std::vector<pipeline::SessionReport> run_scenarios(
      const std::vector<experiment::Scenario>& scenarios) const;

  // Validates via rpv::validate (runs > 0) and shards the campaign's seeds.
  [[nodiscard]] CampaignResult run(const experiment::Campaign& campaign) const;

  // `runs` seeded repetitions of every cell, flattened into one shard list.
  // Seeds per cell follow the campaign derivation from `base_seed`.
  [[nodiscard]] GridResult run_grid(const std::vector<GridCell>& cells,
                                    int runs, std::uint64_t base_seed) const;

 private:
  EngineConfig cfg_;
};

}  // namespace rpv::exec
