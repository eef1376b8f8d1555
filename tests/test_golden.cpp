// Golden pins for sessions end to end: the FNV-1a digest of the canonical
// report JSON of five unobserved single-path flights, and of the
// events.jsonl stream of one observed flight. Together they cover every
// single-path feature the session wiring touches (GCC, SCReAM at both ack
// windows, probe-only, C2, faults, resilience, FEC, observability). Two
// bonded flights through an RLF storm on both operators pin the receive path
// of multipath delivery (reorder window, duplicate filter, adaptive FEC):
// the report on the operator pair, and the report and events.jsonl stream
// with a LEO path added. Any refactor of the session layer that changes a
// single byte of one of these artifacts fails here. See docs/TESTING.md
// ("Refreshing golden pins") before touching a constant.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report_json.hpp"

namespace rpv {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

experiment::Scenario flight(experiment::Environment env,
                            experiment::Mobility mobility, pipeline::CcKind cc,
                            std::uint64_t seed) {
  experiment::Scenario s;
  s.env = env;
  s.mobility = mobility;
  s.cc = cc;
  s.seed = seed;
  return s;
}

pipeline::SessionReport expect_report_pin(const experiment::Scenario& s,
                                          std::uint64_t pin) {
  auto r = experiment::run_scenario(s);
  const auto digest = fnv1a(pipeline::report_to_json(r).dump());
  EXPECT_EQ(digest, pin) << "actual " << hex(digest);
  return r;
}

TEST(GoldenPins, UrbanAirGccReport) {
  expect_report_pin(flight(experiment::Environment::kUrban,
                           experiment::Mobility::kAir, pipeline::CcKind::kGcc,
                           2101),
                    0x886264cf47710083ull);
}

TEST(GoldenPins, RuralP1AirScreamReport) {
  expect_report_pin(flight(experiment::Environment::kRuralP1,
                           experiment::Mobility::kAir,
                           pipeline::CcKind::kScream, 2102),
                    0x620e5b05d1bc430eull);
}

TEST(GoldenPins, RuralP2GroundProbeOnlyReport) {
  auto s = flight(experiment::Environment::kRuralP2,
                  experiment::Mobility::kGround, pipeline::CcKind::kNone, 2103);
  s.probe_interval = sim::Duration::millis(200);
  const auto r = expect_report_pin(s, 0x7647263679dd15c2ull);
  EXPECT_FALSE(r.rtt_by_altitude.empty());
}

TEST(GoldenPins, UrbanAirStaticC2RlfStormResilienceFecReport) {
  auto s = flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                  pipeline::CcKind::kStatic, 2104);
  s.c2 = true;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.resilience = true;
  s.fec_group_size = 10;
  expect_report_pin(s, 0xa5a66f43826f7900ull);
}

// The paper's 64-packet RFC 8888 window under an RLF storm with FEC and
// keyframe recovery: exercises SCReAM's loss walk below the ack window, its
// flight timeouts, feedback carrying only a keyframe request, and parity
// transport seqs.
TEST(GoldenPins, UrbanAirScreamAckWindow64Report) {
  auto s = flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                  pipeline::CcKind::kScream, 2106);
  s.rfc8888_ack_window = 64;
  s.resilience = true;
  s.fec_group_size = 10;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  expect_report_pin(s, 0x8ff869ebf3819f70ull);
}

TEST(GoldenPins, ObservedUrbanAirGccEventStream) {
  auto s = flight(experiment::Environment::kUrban, experiment::Mobility::kAir,
                  pipeline::CcKind::kGcc, 2101);
  s.observe = true;
  const auto r = experiment::run_scenario(s);
  ASSERT_FALSE(r.events.empty());
  const auto digest = fnv1a(obs::to_jsonl(r.events));
  EXPECT_EQ(digest, 0x4532c203a428dcb6ull) << "actual " << hex(digest);
}

// A bonded flight: the reorder window, duplicate filter and FEC group state
// on the receive path of an RLF storm hitting both operators.
experiment::Scenario bonded_storm(experiment::PathSet paths,
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

TEST(GoldenPins, RuralP1BondedOperatorPairRlfStormReport) {
  const auto r = expect_report_pin(
      bonded_storm(experiment::PathSet::kOperatorPair, 2107),
      0xdc8db7d664d9f158ull);
  EXPECT_GT(r.bond_reorder_flushes, 0u);
  EXPECT_GT(r.bond_fec_recovered, 0u);
}

TEST(GoldenPins, ObservedRuralP1BondedThreeWayRlfStormReportAndEventStream) {
  auto s = bonded_storm(experiment::PathSet::kThreeWay, 2108);
  s.observe = true;
  const auto r = expect_report_pin(s, 0x4e6c712f791f65f3ull);
  EXPECT_GT(r.bond_reorder_flushes, 0u);
  EXPECT_GT(r.bond_fec_recovered, 0u);
  ASSERT_FALSE(r.events.empty());
  const auto digest = fnv1a(obs::to_jsonl(r.events));
  EXPECT_EQ(digest, 0xfd5240e5e7bb0301ull) << "actual " << hex(digest);
}

}  // namespace
}  // namespace rpv
