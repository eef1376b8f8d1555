// The golden flights: fixed-seed scenarios whose artifacts test_golden.cpp
// pins byte for byte and whose per-packet costs test_cost_budget.cpp
// bounds. Together they cover every single-path feature the session wiring
// touches (GCC, SCReAM at both ack windows, probe-only, C2, faults,
// resilience, FEC, observability) and the receive path of bonded delivery
// (reorder window, duplicate filter, adaptive FEC) through an RLF storm on
// both operators, on the operator pair and with a LEO path added.
#pragma once

#include <cstdint>

#include "experiment/scenario.hpp"

namespace rpv::golden {

inline experiment::Scenario flight(experiment::Environment env,
                                   experiment::Mobility mobility,
                                   pipeline::CcKind cc, std::uint64_t seed) {
  experiment::Scenario s;
  s.env = env;
  s.mobility = mobility;
  s.cc = cc;
  s.seed = seed;
  return s;
}

inline experiment::Scenario urban_air_gcc() {
  return flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                pipeline::CcKind::kGcc, 2101);
}

inline experiment::Scenario rural_p1_air_scream() {
  return flight(experiment::Environment::kRuralP1, experiment::Mobility::kAir,
                pipeline::CcKind::kScream, 2102);
}

inline experiment::Scenario rural_p2_ground_probe_only() {
  auto s = flight(experiment::Environment::kRuralP2,
                  experiment::Mobility::kGround, pipeline::CcKind::kNone, 2103);
  s.probe_interval = sim::Duration::millis(200);
  return s;
}

inline experiment::Scenario urban_air_static_c2_rlf_storm_resilience_fec() {
  auto s = flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                  pipeline::CcKind::kStatic, 2104);
  s.c2 = true;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.resilience = true;
  s.fec_group_size = 10;
  return s;
}

// The paper's 64-packet RFC 8888 window under an RLF storm with FEC and
// keyframe recovery: exercises SCReAM's loss walk below the ack window, its
// flight timeouts, feedback carrying only a keyframe request, and parity
// transport seqs.
inline experiment::Scenario urban_air_scream_ack_window_64() {
  auto s = flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                  pipeline::CcKind::kScream, 2106);
  s.rfc8888_ack_window = 64;
  s.resilience = true;
  s.fec_group_size = 10;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  return s;
}

// A bonded flight: the reorder window, duplicate filter and FEC group state
// on the receive path of an RLF storm hitting both operators.
inline experiment::Scenario bonded_storm(experiment::PathSet paths,
                                         std::uint64_t seed) {
  auto s = flight(experiment::Environment::kRuralP1, experiment::Mobility::kAir,
                  pipeline::CcKind::kStatic, seed);
  s.c2 = true;
  s.multipath = experiment::Multipath::kBondHighReliability;
  s.path_set = paths;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.faults_on_both_operators = true;
  return s;
}

inline experiment::Scenario rural_p1_bonded_operator_pair_rlf_storm() {
  return bonded_storm(experiment::PathSet::kOperatorPair, 2107);
}

inline experiment::Scenario observed_rural_p1_bonded_three_way_rlf_storm() {
  auto s = bonded_storm(experiment::PathSet::kThreeWay, 2108);
  s.observe = true;
  return s;
}

}  // namespace rpv::golden
