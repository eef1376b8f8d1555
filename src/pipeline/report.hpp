// Aggregated outcome of one measurement run (one flight / one ground run):
// every quantity the paper's figures and tables are computed from.
//
// Every session fills it through one collect(), whatever its path count.
// With more than one path, the loss and drop counts (radio_losses,
// buffer_drops, media_losses, wan_drops, fault_drops, losses_per_second) are
// summed over paths and count copies: a duplicated packet can be lost on one
// path and still be received. per therefore rates lost copies, and
// packets_in_flight is not conserved (sent counts logical packets). The
// handover log, capacity summaries and prediction block follow the primary
// operator; packets_sent/received count logical packets.
//
// Apart from the probe RTTs of a probe-only run (one per ping), every member
// is bounded by the flight's seconds, handovers, faults and stalls, or by a
// distribution's occupied bins, not by its packets, frames or measurement
// ticks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "metrics/cdf.hpp"
#include "metrics/handover_log.hpp"
#include "metrics/time_series.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "predict/stats.hpp"
#include "sim/time.hpp"

namespace rpv::pipeline {

// Per-path delivery/airtime attribution for bonded sessions (schema v6):
// one row per registered path, in registration order.
struct PathBreakdown {
  std::string kind;  // "cellular" | "satellite" | "mesh"
  std::uint64_t sent_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t airtime_bytes = 0;
};

struct SessionReport {
  std::string cc_name;
  std::string environment;
  sim::Duration duration;

  // --- Video delivery ---
  std::vector<double> goodput_mbps_windows;   // 1 s windows (Fig. 6)
  std::vector<double> fps_windows;            // 1 s windows (Fig. 7a)
  metrics::Cdf ssim;                          // per frame incl. unplayed zeros (Fig. 7b)
  double stalls_per_minute = 0.0;             // §4.2.1 table
  std::vector<double> stall_duration_ms;      // per frozen gap; size() = stalls
  std::uint32_t frames_encoded = 0;
  std::uint32_t frames_played = 0;
  std::uint32_t frames_corrupted = 0;
  double avg_goodput_mbps = 0.0;

  // --- Network ---
  double per = 0.0;                           // radio + buffer drops / sent
  std::size_t cells_seen = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t radio_losses = 0;
  std::uint64_t buffer_drops = 0;

  // --- Fault injection & resilience ---
  std::uint64_t wan_drops = 0;        // media dropped on the uplink WAN leg
  std::uint64_t media_losses = 0;     // radio/queue losses of media packets
  // sent - received - media_losses - wan_drops; >= 0 when accounting closes
  // (the remainder is packets still in flight when the run drained).
  std::int64_t packets_in_flight = 0;
  std::uint64_t fault_drops = 0;      // dropped by injected blackouts
  std::uint64_t faults_injected = 0;
  std::uint64_t watchdog_events = 0;  // sender feedback-silence episodes
  std::uint64_t pli_sent = 0;         // receiver keyframe requests
  std::uint32_t keyframes_forced = 0; // PLIs the sender honored
  int max_ladder_level = 0;           // deepest degradation level reached
  std::vector<fault::FaultOutcome> fault_outcomes;

  // --- Prediction & proactive adaptation (rpv::predict) ---
  predict::PredictionStats prediction;

  // --- Connectivity-aware flight planning (rpv::uav, schema v7) ---
  // Filled by experiment::run_scenario under Policy::kPlanned with a warm
  // radio map; all-zero otherwise.
  bool planned = false;                       // planner ran on this session
  bool plan_replanned = false;                // a non-identity path won
  std::uint32_t plan_candidates = 0;          // candidate paths evaluated
  std::uint32_t plan_selected = 0;            // winner index (0 = mission)
  double plan_predicted_stall_ms_direct = 0;  // map cost of the mission path
  double plan_predicted_stall_ms_selected = 0;  // map cost of the flown path
  double plan_deviation_m = 0;                // mean displacement vs mission

  // --- Bonded link management (rpv::bond) ---
  // Empty/zero for single-path sessions; bonded sessions fill the policy
  // name ("duplicate", ..., "high-reliability") and the scheduler counters.
  std::string bond_policy;
  std::uint64_t bond_path_switches = 0;       // kPathSwitch events
  std::uint64_t bond_class_preemptions = 0;   // C2/telemetry diversions
  std::uint64_t bond_fec_rate_changes = 0;    // adaptive parity retunes
  std::uint64_t bond_reorder_flushes = 0;     // reorder-window releases
  std::uint64_t bond_duplicates_suppressed = 0;  // second copies discarded
  std::uint64_t bond_fec_recovered = 0;       // packets rebuilt from parity
  // Total bytes offered to the radios (every copy + parity) vs the sender's
  // unique media bytes: the airtime-overhead numerator/denominator for the
  // airtime-vs-stall tradeoff tables.
  std::uint64_t bond_airtime_bytes = 0;
  std::uint64_t bond_media_bytes = 0;
  std::vector<PathBreakdown> bond_paths;  // schema v6, empty pre-bond

  // --- LEO satellite / mesh path (rpv::sat, schema v6) ---
  bool sat_enabled = false;
  std::uint64_t sat_pass_handovers = 0;  // satellite-pass interruptions fired
  std::uint64_t sat_obstructions = 0;    // obstruction/rain-fade windows opened
  double sat_outage_ms = 0.0;            // total scheduled outage time
  // Player stall time whose onset fell inside a sat unavailable window —
  // the stall mass the satellite path could not mask (vs. did cause).
  double sat_stall_ms_in_outage = 0.0;

  // Discrete-event count of the run (events/sec denominators for benches).
  std::uint64_t sim_events = 0;

  // --- Observability (rpv::obs) ---
  bool obs_enabled = false;
  std::uint64_t obs_events_recorded = 0;  // accepted by the ring recorder
  std::uint64_t obs_events_dropped = 0;   // overwritten (ring overflow)
  obs::MetricsSummary obs_metrics;
  // Recorder snapshot (oldest first). Exported to events.jsonl by the
  // artifact store; deliberately NOT serialized into the report JSON.
  std::vector<obs::Event> events;

  // --- Pipeline internals ---
  std::uint64_t queue_discard_events = 0;     // SCReAM RTP-queue flushes
  std::uint64_t jitter_resyncs = 0;
  std::uint64_t scream_misloss_packets = 0;   // ack-window mislabelled losses

  // --- Latency distributions and windows (schema v9) ---
  // One-way latency of every media packet (Fig. 5) and playback latency of
  // every played frame (Fig. 7c), as distributions; the same two signals
  // per second of flight (Fig. 8's timeline); and the one-way latency around
  // each handover, one entry per handovers.events() entry:
  // metrics::latency_ratios(handover_owd_ms) gives Fig. 9.
  metrics::Cdf owd_ms;
  metrics::Cdf playback_latency_ms;
  metrics::PerSecond owd_per_second_ms;
  metrics::PerSecond playback_latency_per_second_ms;
  std::vector<metrics::HandoverWindows> handover_owd_ms;

  // --- Bitrate, capacity and losses (schema v10) ---
  // The encoder's target bitrate as its record highs (ramp_up_seconds reads
  // them); the primary operator's uplink capacity at every measurement tick,
  // as a distribution; and the radio losses of every path counted per
  // half-open second [k s, (k+1) s), Fig. 8's loss column, summing to
  // radio_losses. handovers.het_ms() / frequency(duration) /
  // ping_pong_count() give Fig. 4.
  metrics::Highs target_bitrate_highs_bps;
  metrics::Cdf capacity_mbps;
  std::vector<std::uint64_t> losses_per_second;
  metrics::HandoverLog handovers;

  // --- Probes (Fig. 13) ---
  std::vector<std::pair<double, double>> rtt_by_altitude;  // (altitude m, RTT ms)

  // --- Command & control channel ---
  metrics::Cdf command_latency_ms;    // pilot -> UAV (downlink)
  metrics::Cdf telemetry_latency_ms;  // UAV -> pilot (uplink, shares the
                                      // video bearer queue)
  std::uint64_t commands_sent = 0;
  std::uint64_t telemetry_sent = 0;

  // Seconds until the target bitrate first reached `bps` (ramp-up); negative
  // if never reached.
  [[nodiscard]] double ramp_up_seconds(double bps) const {
    const auto t = target_bitrate_highs_bps.first_at_least(bps);
    return t ? t->sec() : -1.0;
  }
};

}  // namespace rpv::pipeline
