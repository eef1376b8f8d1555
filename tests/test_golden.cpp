// Golden pins for sessions end to end: the FNV-1a digest of the canonical
// report JSON of the five unobserved single-path golden flights
// (golden_flights.hpp), and of the events.jsonl stream of one observed
// flight. Two bonded flights through an RLF storm on both operators pin the
// receive path of multipath delivery: the report on the operator pair, and
// the report and events.jsonl stream with a LEO path added. Any refactor of
// the session layer that changes a single byte of one of these artifacts
// fails here. See docs/TESTING.md ("Refreshing golden pins") before
// touching a constant.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "golden_flights.hpp"
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

pipeline::SessionReport expect_report_pin(const experiment::Scenario& s,
                                          std::uint64_t pin) {
  auto r = experiment::run_scenario(s);
  const auto digest = fnv1a(pipeline::report_to_json(r).dump());
  EXPECT_EQ(digest, pin) << "actual " << hex(digest);
  return r;
}

TEST(GoldenPins, UrbanAirGccReport) {
  expect_report_pin(golden::urban_air_gcc(), 0xac94d6576923a576ull);
}

TEST(GoldenPins, RuralP1AirScreamReport) {
  expect_report_pin(golden::rural_p1_air_scream(), 0xeb83b004847de580ull);
}

TEST(GoldenPins, RuralP2GroundProbeOnlyReport) {
  const auto r = expect_report_pin(golden::rural_p2_ground_probe_only(),
                                   0x1978f2b0f2d4b0c9ull);
  EXPECT_FALSE(r.rtt_by_altitude.empty());
}

TEST(GoldenPins, UrbanAirStaticC2RlfStormResilienceFecReport) {
  expect_report_pin(golden::urban_air_static_c2_rlf_storm_resilience_fec(),
                    0x588e0652fa41f8ccull);
}

TEST(GoldenPins, UrbanAirScreamAckWindow64Report) {
  expect_report_pin(golden::urban_air_scream_ack_window_64(),
                    0x06f1fa4463de34eaull);
}

TEST(GoldenPins, ObservedUrbanAirGccEventStream) {
  auto s = golden::urban_air_gcc();
  s.observe = true;
  const auto r = experiment::run_scenario(s);
  ASSERT_FALSE(r.events.empty());
  const auto digest = fnv1a(obs::to_jsonl(r.events));
  EXPECT_EQ(digest, 0x4532c203a428dcb6ull) << "actual " << hex(digest);
}

TEST(GoldenPins, RuralP1BondedOperatorPairRlfStormReport) {
  const auto r = expect_report_pin(
      golden::rural_p1_bonded_operator_pair_rlf_storm(), 0xa1c139afcce8ca91ull);
  EXPECT_GT(r.bond_reorder_flushes, 0u);
  EXPECT_GT(r.bond_fec_recovered, 0u);
}

TEST(GoldenPins, ObservedRuralP1BondedThreeWayRlfStormReportAndEventStream) {
  const auto r = expect_report_pin(
      golden::observed_rural_p1_bonded_three_way_rlf_storm(),
      0x110c9f8de505ebe6ull);
  EXPECT_GT(r.bond_reorder_flushes, 0u);
  EXPECT_GT(r.bond_fec_recovered, 0u);
  ASSERT_FALSE(r.events.empty());
  const auto digest = fnv1a(obs::to_jsonl(r.events));
  EXPECT_EQ(digest, 0xfd5240e5e7bb0301ull) << "actual " << hex(digest);
}

}  // namespace
}  // namespace rpv
