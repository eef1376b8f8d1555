// Flights: every flight a set of figures asks for, flown once.
//
// rpv_figures renders its figures twice against one Flights. While
// recording, run() notes each (Scenario, seed) pair it is asked for and
// answers with default-constructed placeholder reports, so no figure lists
// its grid twice. fly() then runs each distinct pair once, in first-request
// order, as one CampaignEngine batch. From then on run() answers from those
// reports, and throws for a pair the recording pass never asked for.
// radio_map() builds each warm-up map once, so both passes hand their
// flights the same map, and a Scenario compares a map by pointer. write()
// stores the flights and maps through exec::RunArtifactStore; a Flights
// made from that store answers both from it, and its fly() flies nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "exec/run_artifact.hpp"
#include "experiment/mapping.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

class Flights {
 public:
  Flights() = default;

  // Answers from the campaign write() stored in `dir`. A pair or a map the
  // store lacks throws std::runtime_error naming its label and seed.
  explicit Flights(const std::filesystem::path& dir) : stored_{true} {
    auto loaded = exec::RunArtifactStore::load_campaign(dir);
    for (auto& cell : loaded.cells) {
      for (std::size_t i = 0; i < cell.seeds.size(); ++i) {
        scenarios_.push_back(cell.cell.scenario);
        scenarios_.back().seed = cell.seeds[i];
        reports_.push_back(std::move(cell.reports[i]));
      }
    }
    maps_ = std::move(loaded.maps);
  }

  // One report per scenario, in input order.
  [[nodiscard]] std::vector<pipeline::SessionReport> run(
      const std::vector<experiment::Scenario>& scenarios) {
    std::vector<pipeline::SessionReport> out(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto at =
          std::find(scenarios_.begin(), scenarios_.end(), scenarios[i]);
      if (!flown_) {
        ++requested_;
        if (at != scenarios_.end()) continue;
        if (stored_) throw missing("flight", scenarios[i]);
        scenarios_.push_back(scenarios[i]);
        continue;
      }
      if (at == scenarios_.end()) {
        throw std::logic_error(
            "Flights: a figure asked for a flight it did not record");
      }
      out[i] = reports_[static_cast<std::size_t>(at - scenarios_.begin())];
    }
    return out;
  }

  // The campaign's runs, seeded as exec::CampaignEngine::run seeds them.
  [[nodiscard]] std::vector<pipeline::SessionReport> run(
      const experiment::Campaign& c) {
    rpv::validate(c.runs > 0, "Campaign.runs must be > 0");
    std::vector<experiment::Scenario> scenarios;
    for (const auto seed : exec::campaign_seeds(c)) {
      scenarios.push_back(c.scenario);
      scenarios.back().seed = seed;
    }
    return run(scenarios);
  }

  // experiment::build_radio_map(base, spec), built on the first request
  // for that pair and shared by every later one.
  [[nodiscard]] std::shared_ptr<const radiomap::RadioMap> radio_map(
      const experiment::Scenario& base, const radiomap::GridSpec& spec) {
    for (const auto& m : maps_) {
      if (m.base == base && m.map->spec() == spec) return m.map;
    }
    if (stored_) throw missing("warm-up map", base);
    maps_.push_back({base, std::make_shared<const radiomap::RadioMap>(
                               experiment::build_radio_map(base, spec))});
    return maps_.back().map;
  }

  // Flies every recorded flight once; run() answers from here on.
  void fly(const exec::CampaignEngine& engine) {
    if (!stored_) {
      reports_ = engine.run_scenarios(scenarios_);
      simulated_ = scenarios_.size();
    }
    flown_ = true;
  }

  // Stores the flights and their warm-up maps as the campaign `dir`: a cell
  // per scenario, seed aside, in first-request order. Gives up the reports.
  void write(std::filesystem::path dir, int jobs, double wall_seconds) && {
    if (!dir.has_filename()) dir = dir.parent_path();  // "art/j1/"
    exec::GridResult grid;
    auto& cells = grid.cells;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      auto key = scenarios_[i];
      auto cell = std::find_if(cells.begin(), cells.end(), [&](const auto& c) {
        key.seed = c.cell.scenario.seed;
        return key == c.cell.scenario;
      });
      if (cell == cells.end()) {
        cells.push_back({{experiment::scenario_label(key), scenarios_[i]}, {}, {}});
        cell = cells.end() - 1;
      }
      cell->seeds.push_back(scenarios_[i].seed);
      cell->reports.push_back(std::move(reports_[i]));
    }
    exec::CampaignManifest manifest;
    manifest.name = dir.filename().string();
    manifest.git_describe = exec::current_git_describe();
    manifest.jobs = jobs;
    manifest.wall_seconds = wall_seconds;
    if (std::all_of(cells.begin(), cells.end(), [&](const auto& c) {
          return c.seeds.size() == cells.front().seeds.size();
        })) {  // else 0: the cells differ in runs
      manifest.runs_per_cell =
          cells.empty() ? 0 : static_cast<int>(cells.front().seeds.size());
    }
    (void)exec::RunArtifactStore{dir.parent_path()}.write_campaign(
        manifest, grid, maps_);
  }

  [[nodiscard]] bool recording() const { return !flown_; }
  [[nodiscard]] std::size_t requested() const { return requested_; }
  [[nodiscard]] std::size_t distinct() const { return scenarios_.size(); }
  [[nodiscard]] std::size_t simulated() const { return simulated_; }

 private:
  static std::runtime_error missing(const std::string& what,
                                    const experiment::Scenario& s) {
    return std::runtime_error{"the store has no " + what + " " +
                              experiment::scenario_label(s) + " seed " +
                              std::to_string(s.seed)};
  }

  std::vector<experiment::Scenario> scenarios_;   // distinct, first request first
  std::vector<pipeline::SessionReport> reports_;  // reports_[i] flew scenarios_[i]
  std::vector<exec::WarmUpMap> maps_;
  std::size_t requested_ = 0;
  std::size_t simulated_ = 0;
  bool stored_ = false;  // answers from a store
  bool flown_ = false;
};

}  // namespace rpv::bench
