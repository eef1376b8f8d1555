// Flights: every flight a set of figures asks for, flown once.
//
// rpv_figures renders its figures twice against one Flights. While
// recording, run() notes each (Scenario, seed) pair it is asked for and
// answers with default-constructed placeholder reports, so no figure lists
// its grid twice. fly() then runs each distinct pair once, in first-request
// order, as one CampaignEngine batch. From then on run() answers from those
// reports, and throws for a pair the recording pass never asked for.
// radio_map() builds each warm-up map once, so both passes hand their
// flights the same map, and a Scenario compares a map by pointer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "experiment/mapping.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

class Flights {
 public:
  // One report per scenario, in input order.
  [[nodiscard]] std::vector<pipeline::SessionReport> run(
      const std::vector<experiment::Scenario>& scenarios) {
    std::vector<pipeline::SessionReport> out(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto at =
          std::find(scenarios_.begin(), scenarios_.end(), scenarios[i]);
      if (!flown_) {
        ++requested_;
        if (at == scenarios_.end()) scenarios_.push_back(scenarios[i]);
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
      if (m.base == base && m.spec == spec) return m.map;
    }
    maps_.push_back({base, spec,
                     std::make_shared<const radiomap::RadioMap>(
                         experiment::build_radio_map(base, spec))});
    return maps_.back().map;
  }

  // Flies every recorded flight once; run() answers from here on.
  void fly(const exec::CampaignEngine& engine) {
    reports_ = engine.run_scenarios(scenarios_);
    flown_ = true;
  }

  [[nodiscard]] std::size_t requested() const { return requested_; }
  [[nodiscard]] std::size_t distinct() const { return scenarios_.size(); }

 private:
  std::vector<experiment::Scenario> scenarios_;   // distinct, first request first
  std::vector<pipeline::SessionReport> reports_;  // reports_[i] flew scenarios_[i]
  struct WarmUpMap {
    experiment::Scenario base;
    radiomap::GridSpec spec;
    std::shared_ptr<const radiomap::RadioMap> map;
  };
  std::vector<WarmUpMap> maps_;
  std::size_t requested_ = 0;
  bool flown_ = false;
};

}  // namespace rpv::bench
