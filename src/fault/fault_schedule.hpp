// Scriptable fault schedule — the failure modes the paper observed on aerial
// LTE links, as deterministic, seedable injection events.
//
// The measurement campaign saw the benign side of the story; its Section 5
// recommendation is resilience machinery for the malign one: radio link
// failures with multi-second re-establishment, RTCP feedback silence,
// capacity collapses at the cell edge, and transport outages beyond the
// radio. A FaultSchedule is a sorted list of such events that composes with
// any Scenario/SessionConfig; the FaultInjector drives the corresponding
// hooks in rpv::cellular::CellularLink and rpv::net::WanPath at simulation
// time. Schedules are plain data: the same schedule plus the same session
// seed reproduces a byte-identical run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace rpv::fault {

enum class FaultKind : std::uint8_t {
  kRlf,               // radio link failure: T310 expiry -> RRC re-establishment
  kFeedbackBlackout,  // downlink RTCP silence; uplink media keeps flowing
  kCapacityCollapse,  // transient deep fade: capacity x residual fraction
  kWanOutage,         // WAN leg drops every packet, both directions
};

// FaultKind names, indexed by value; the artifact manifest stores them.
inline constexpr std::array<std::string_view, 4> kFaultKindNames = {
    "rlf", "feedback-blackout", "capacity-collapse", "wan-outage"};

struct FaultEvent {
  sim::TimePoint at;
  // Outage length. Ignored for kRlf: the re-establishment time is sampled
  // from the link's HET model (T310 + cell re-selection), like real RLF.
  sim::Duration duration = sim::Duration::zero();
  FaultKind kind = FaultKind::kCapacityCollapse;
  // kCapacityCollapse only: residual capacity fraction in [0, 1).
  double magnitude = 0.0;

  bool operator==(const FaultEvent&) const = default;
};

class FaultSchedule {
 public:
  // Validates and inserts keeping events sorted by injection time.
  FaultSchedule& add(const FaultEvent& ev);

  // Convenience builders (times in simulation seconds).
  FaultSchedule& rlf(double at_sec);
  FaultSchedule& feedback_blackout(double at_sec, double duration_sec);
  FaultSchedule& capacity_collapse(double at_sec, double duration_sec,
                                   double residual = 0.0);
  FaultSchedule& wan_outage(double at_sec, double duration_sec);

  // A random-but-deterministic chaos schedule: fault starts form a Poisson
  // process with the given mean inter-fault gap, kinds drawn uniformly,
  // durations exponential with the given mean. Same seed -> same schedule.
  [[nodiscard]] static FaultSchedule random(std::uint64_t seed,
                                            sim::Duration horizon,
                                            double mean_gap_sec = 45.0,
                                            double mean_duration_sec = 2.0);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  bool operator==(const FaultSchedule&) const = default;

 private:
  std::vector<FaultEvent> events_;  // sorted by `at`
};

}  // namespace rpv::fault
