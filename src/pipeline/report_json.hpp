// SessionReport <-> JSON.
//
// Every field of a SessionReport — distributions, per-second and
// per-handover windows, the bitrate highs, per-stall and per-window vectors,
// the handover log, fault outcomes — is persisted so a stored run is a full
// substitute for re-simulating it: `rpv_figures --load` re-renders every
// figure and grid from these files alone. The format is one field list
// per record in report_json.cpp (SessionReport, PathBreakdown, FaultOutcome,
// HandoverEvent, PredictionStats, metrics::Cdf, PerSecond, Highs,
// HandoverWindows; obs::Histogram and MetricsSummary in
// obs/metrics_registry.hpp), walked by both directions of json/binder.hpp. A
// Cdf is stored as its exact sum, min and max plus two parallel integer
// arrays, "bins" and "counts", of the occupied bins only; the loader rejects
// bins that no Cdf could hold, and highs that do not rise.
// Serialization is canonical (fixed member order, shortest-round-trip
// doubles, integer counters stay integers), so two byte-identical reports
// dump to byte-identical JSON; the parallel-determinism tests rely on
// exactly this.
#pragma once

#include "json/json.hpp"
#include "pipeline/report.hpp"

namespace rpv::pipeline {

// Version 2 added stall_duration_ms and the prediction block; version 3 the
// observability block (enabled flag, recorder totals, counters, histograms);
// version 4 the bond block (policy name + bonded-scheduler counters);
// version 5 the fleet report family (rpv::fleet documents carrying a `fleet`
// block of merged metrics instead of N per-session reports); version 6 the
// per-path breakdown inside the bond block, the sat block (LEO pass
// handovers, outage totals, stall attribution), and sim_events; version 7
// the planning block and the prediction block's map-prior fields; version 8
// dropped the statistics derivable from records kept beside them (owd_ms,
// playback_latency_ms, het_ms, ho_frequency_per_s, ping_pong_handovers,
// ho_latency_ratios, stall_count, failover_events), so each fact is stored
// once; version 9 replaced the per-sample owd_trace_ms,
// playback_latency_trace_ms and ssim_samples with fixed-bin distributions
// (owd_ms, playback_latency_ms, ssim: exact sum/min/max plus sparse integer
// bin counts, see metrics/cdf.hpp), per-second count/sum rows of both
// latencies, and handover_owd_ms, the exact one-way-latency extremes around
// each handover; version 10 replaced the last per-sample series:
// target_bitrate_trace_bps became target_bitrate_highs_bps (the samples that
// set a new high, enough for ramp_up_seconds at any rate),
// capacity_trace_mbps became the capacity_mbps distribution, loss_times_us
// became losses_per_second (counts per half-open second), and
// command_latency_ms and telemetry_latency_ms became distributions. Documents
// of any other version, 9 included, are rejected with "report_json:
// unsupported schema version N".
inline constexpr int kReportSchemaVersion = 10;

[[nodiscard]] json::Value report_to_json(const SessionReport& r);

// Inverse of report_to_json; throws std::runtime_error on documents that do
// not match the schema: a missing key, a kind mismatch, or an integer that
// does not fit its member.
[[nodiscard]] SessionReport report_from_json(const json::Value& v);

}  // namespace rpv::pipeline
