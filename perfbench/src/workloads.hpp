// The benchmark's three closed-loop workloads.
//
// Each workload runs at one worker (--jobs 1): the next flight starts only
// after the previous one completed. A workload is driven only through the
// simulator's top-level public entry points (exec::CampaignEngine,
// exec::RunArtifactStore, experiment::pool_*, fleet::plan_fleet /
// FleetEngine, pipeline::report_to_json / report_from_json and an
// obs::MetricsRegistry sink), so refactors below them leave it unchanged.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gauge.hpp"
#include "ledger.hpp"

namespace perfbench {

// Per-iteration counts of one traced iteration, summed over its runs. They
// feed the per-layer ledger and size the layer replays.
struct LayerCounts {
  double runs = 0;
  double sim_events = 0;
  double uav_seconds = 0;
  double packets_sent = 0;
  double packets_received = 0;
  double goodput_bytes = 0;  // media bytes delivered (goodput x duration)
  double frames_encoded = 0;
  double frames_decoded = 0;
  double stalls = 0;
  double scream_queue_discards = 0;
  double report_bytes = 0;  // summed over runs
  double link_enqueued = 0;
  double link_drops = 0;
  double handovers = 0;
  double rlf = 0;
  double measurements = 0;
  double wan_drops = 0;
  double target_rate_changes = 0;
  double gcc_feedbacks = 0;     // estimated: flight time / feedback interval
  double scream_feedbacks = 0;  // same, for SCReAM flights
  double fec_packets = 0;       // media packets of runs that ran FEC
  double bond_airtime_bytes = 0;
  double bond_media_bytes = 0;
  double bond_delivered = 0;  // copies delivered over every bonded path
  double sat_delivered = 0;
  double duplicates_suppressed = 0;
  double reorder_flushes = 0;
  double path_switches = 0;
  double fec_retunes = 0;
  double sat_pass_handovers = 0;
  double sat_obstructions = 0;
  double obs_recorded = 0;
  double obs_dropped = 0;
  double events_jsonl_bytes = 0;  // summed over runs
};

struct IterationResult {
  bool traced = false;
  int runs = 0;         // runs attempted in this iteration
  int failed_runs = 0;  // runs that threw or failed an output check
  std::vector<std::string> failures;

  // Simulation time of each unit (one flight, or one fleet), in the same
  // order every iteration, at reference host speed, and the host's slowness
  // over each unit (HostGauge::settle): raw CPU time is their product.
  std::vector<double> unit_run_s;
  std::vector<double> unit_slowness;
  double write_s = 0;  // artifact write
  double load_s = 0;   // artifact load
  double pool_s = 0;   // figure numbers from the loaded artifacts

  double sim_events = 0;
  double uav_seconds = 0;
  double artifact_bytes = 0;  // report JSON (+ events.jsonl), all runs
  std::uint64_t digest = 0;   // FNV-1a over the runs' report bytes

  // Traced iterations only.
  double report_dump_ms = 0;   // mean per run
  double report_parse_ms = 0;  // mean per run
  double dump_ns_per_byte = 0;
  LayerCounts counts;
};

struct SetupResult {
  double experiment_s = 0;  // scenarios + validated session configs
  double plan_s = 0;        // mission construction (layouts, trajectories)
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the workload's inputs the way a caller must before its first
  // simulation call. Pure, so it may be repeated.
  [[nodiscard]] virtual SetupResult setup() const = 0;
  // Set-ups per timed batch: enough that a batch takes a millisecond or more.
  [[nodiscard]] virtual int setup_batch() const = 0;
  // Closed-loop iterations per run. A constant per workload, so a faster
  // and a slower build summarize the same number of samples.
  [[nodiscard]] virtual int iterations() const = 0;
  // One closed-loop pass over the whole workload, spans recorded in `spans`,
  // each timing divided by the host's slowness `gauge` measures around it.
  [[nodiscard]] virtual IterationResult iterate(int iteration, bool traced,
                                                SpanRecorder& spans,
                                                HostGauge& gauge) = 0;
  // The base seeds and run counts, for the result metadata.
  [[nodiscard]] virtual std::string describe() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// `seed` offsets the workload's default bench seed; `tiny` shrinks the
// workload to a smoke-test size. Artifacts go under `work_dir`. Returns null
// for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, std::uint64_t seed, bool tiny,
    const std::filesystem::path& work_dir);

}  // namespace perfbench
