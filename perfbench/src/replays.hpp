// Layer replays: each public per-packet class driven on its own with a
// seeded input stream, to price one operation of that layer in isolation.
//
// A replay that runs on a sim::Simulator is priced with its engine events
// included and reports how many it executed, so a caller can take the
// layer's own share out. Inputs are a pure function of ReplayInput, so a
// replay's checksum repeats exactly for a fixed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"

namespace perfbench {

struct ReplayInput {
  std::uint64_t seed = 1;
  double packet_bytes = 1100.0;   // mean media packet size on the wire
  double packet_rate_pps = 900.0;  // media packets per second of one flow
  rpv::experiment::Environment env = rpv::experiment::Environment::kUrban;
  double scale = 1.0;  // operation-count multiplier (smoke tests shrink it)
};

struct ReplayResult {
  std::string metric;  // the per-layer metric it prices, e.g. "rtp.fec.ns_per_packet"
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t sim_events = 0;  // engine events the replay executed
  std::uint64_t checksum = 0;    // digest of the replay's outputs
};

// Runs every replay, the three event-queue patterns first.
[[nodiscard]] std::vector<ReplayResult> run_replays(const ReplayInput& in);

}  // namespace perfbench
