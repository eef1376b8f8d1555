#include "exec/campaign_engine.hpp"

#include <chrono>

#include "exec/parallel_for.hpp"
#include "sim/validate.hpp"

namespace rpv::exec {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::vector<GridCell> expand_grid(const GridAxes& axes,
                                  const experiment::Scenario& base) {
  // An empty axis means "keep the base scenario's value".
  const std::vector<experiment::Environment> envs =
      axes.envs.empty() ? std::vector<experiment::Environment>{base.env}
                        : axes.envs;
  const std::vector<experiment::Mobility> mobilities =
      axes.mobilities.empty() ? std::vector<experiment::Mobility>{base.mobility}
                              : axes.mobilities;
  const std::vector<pipeline::CcKind> ccs =
      axes.ccs.empty() ? std::vector<pipeline::CcKind>{base.cc} : axes.ccs;
  const std::vector<experiment::AccessTech> techs =
      axes.techs.empty() ? std::vector<experiment::AccessTech>{base.tech}
                         : axes.techs;
  const std::vector<experiment::Policy> policies =
      axes.policies.empty() ? std::vector<experiment::Policy>{base.policy}
                            : axes.policies;
  const std::vector<experiment::Multipath> multipaths =
      axes.multipaths.empty()
          ? std::vector<experiment::Multipath>{base.multipath}
          : axes.multipaths;
  const std::vector<experiment::PathSet> path_sets =
      axes.path_sets.empty() ? std::vector<experiment::PathSet>{base.path_set}
                             : axes.path_sets;
  const std::vector<experiment::FaultPreset> fault_presets =
      axes.fault_presets.empty()
          ? std::vector<experiment::FaultPreset>{base.fault_preset}
          : axes.fault_presets;

  std::vector<GridCell> cells;
  cells.reserve(envs.size() * mobilities.size() * ccs.size() * techs.size() *
                policies.size() * multipaths.size() * path_sets.size() *
                fault_presets.size());
  for (const auto env : envs) {
    for (const auto mobility : mobilities) {
      for (const auto cc : ccs) {
        for (const auto tech : techs) {
          for (const auto policy : policies) {
            for (const auto multipath : multipaths) {
              for (const auto path_set : path_sets) {
                for (const auto preset : fault_presets) {
                  GridCell cell;
                  cell.scenario = base;
                  cell.scenario.env = env;
                  cell.scenario.mobility = mobility;
                  cell.scenario.cc = cc;
                  cell.scenario.tech = tech;
                  cell.scenario.policy = policy;
                  cell.scenario.multipath = multipath;
                  cell.scenario.path_set = path_set;
                  cell.scenario.fault_preset = preset;
                  cell.label = experiment::scenario_label(cell.scenario);
                  cells.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }
  rpv::validate(!cells.empty(), "expand_grid: scenario grid is empty");
  return cells;
}

std::vector<std::uint64_t> campaign_seeds(const experiment::Campaign& c) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(c.runs > 0 ? c.runs : 0));
  for (int i = 0; i < c.runs; ++i) {
    seeds.push_back(c.scenario.seed + static_cast<std::uint64_t>(i) * 7919);
  }
  return seeds;
}

int CampaignEngine::jobs() const { return resolve_jobs(cfg_.jobs); }

std::vector<pipeline::SessionReport> CampaignEngine::run_scenarios(
    const std::vector<experiment::Scenario>& scenarios) const {
  // Pre-flight every cell's config on the calling thread: a misconfigured
  // scenario fails the whole campaign up front with a clear message instead
  // of surfacing as an exception on a worker mid-run.
  for (const auto& s : scenarios) {
    experiment::make_session_config(s).validate();
  }
  std::vector<pipeline::SessionReport> reports(scenarios.size());
  parallel_for_index(scenarios.size(), cfg_.jobs, [&](std::size_t i) {
    reports[i] = experiment::run_scenario(scenarios[i]);
  });
  return reports;
}

CampaignResult CampaignEngine::run(const experiment::Campaign& campaign) const {
  rpv::validate(campaign.runs > 0, "Campaign.runs must be > 0");
  const auto start = std::chrono::steady_clock::now();
  CampaignResult result;
  result.seeds = campaign_seeds(campaign);
  std::vector<experiment::Scenario> scenarios;
  scenarios.reserve(result.seeds.size());
  for (const auto seed : result.seeds) {
    experiment::Scenario s = campaign.scenario;
    s.seed = seed;
    scenarios.push_back(s);
  }
  result.reports = run_scenarios(scenarios);
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

GridResult CampaignEngine::run_grid(const std::vector<GridCell>& cells,
                                    int runs, std::uint64_t base_seed) const {
  rpv::validate(!cells.empty(), "run_grid: scenario grid is empty");
  rpv::validate(runs > 0, "run_grid: runs must be > 0");
  const auto start = std::chrono::steady_clock::now();

  // Flatten cells x runs into one task list so the pool never idles at cell
  // boundaries, then scatter results back by (cell, run) index.
  std::vector<experiment::Scenario> scenarios;
  scenarios.reserve(cells.size() * static_cast<std::size_t>(runs));
  GridResult result;
  result.jobs = jobs();
  result.cells.reserve(cells.size());
  for (const auto& cell : cells) {
    GridCellResult cr;
    cr.cell = cell;
    experiment::Campaign c;
    c.scenario = cell.scenario;
    c.scenario.seed = base_seed;
    c.runs = runs;
    cr.seeds = campaign_seeds(c);
    for (const auto seed : cr.seeds) {
      experiment::Scenario s = cell.scenario;
      s.seed = seed;
      scenarios.push_back(s);
    }
    result.cells.push_back(std::move(cr));
  }

  auto reports = run_scenarios(scenarios);
  std::size_t next = 0;
  for (auto& cr : result.cells) {
    cr.reports.reserve(static_cast<std::size_t>(runs));
    for (int i = 0; i < runs; ++i) {
      cr.reports.push_back(std::move(reports[next++]));
    }
  }
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

}  // namespace rpv::exec
