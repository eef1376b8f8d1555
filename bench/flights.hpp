// Flights: every flight a set of figures asks for, flown once.
//
// rpv_figures renders its figures twice against one Flights. While
// recording, run() notes each (Scenario, seed) pair it is asked for and
// answers with default-constructed placeholder reports, so no figure lists
// its grid twice. fly() then runs each distinct pair once, in first-request
// order, as one CampaignEngine batch. From then on run() answers from those
// reports, and throws for a pair the recording pass never asked for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "exec/campaign_engine.hpp"
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
  std::size_t requested_ = 0;
  bool flown_ = false;
};

}  // namespace rpv::bench
