// FleetReport — the streaming-aggregated result of a multi-UAV run.
//
// At fleet scale, keeping (or serializing) one SessionReport per UAV stops
// working: 10k sessions would mean 10k trace-laden documents per run. The
// fleet report is fixed-size instead — scalar aggregates folded in session
// order, one merged obs::MetricsSummary, the per-cell load peaks, and the
// contention-attributed histograms (samples split by whether the serving
// cell hosted more than one active user when they were observed).
//
// Serialized with "kind": "fleet" under kFleetSchemaVersion, which followed
// the session-report schema from v5 to v8 and stayed at 8 when report
// schema 9 changed only session documents. The format is one field list per record (FleetReport,
// CellLoadPeak) in fleet_report.cpp, walked by both directions of
// json/binder.hpp. Nothing host- or wall-clock-dependent is written, so two
// runs of the same fleet scenario dump byte-identical JSON for any --jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/metrics_registry.hpp"

namespace rpv::fleet {

inline constexpr int kFleetSchemaVersion = 8;

struct CellLoadPeak {
  std::uint32_t cell_id = 0;
  std::uint32_t peak_users = 0;
  bool operator==(const CellLoadPeak&) const = default;
};

struct FleetReport {
  std::string label;
  int sessions = 0;
  double horizon_sec = 0.0;
  double epoch_sec = 0.0;
  std::uint64_t total_events = 0;  // simulator events across every session

  // Per-UAV goodput/stall aggregates (folded in session-index order).
  double mean_goodput_mbps = 0.0;
  double min_goodput_mbps = 0.0;
  double max_goodput_mbps = 0.0;
  std::uint64_t total_stalls = 0;
  double mean_stall_ms_per_session = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;

  // Shared-cell load: peaks in layout order plus the fleet-wide maximum.
  std::vector<CellLoadPeak> cell_peak_load;
  std::uint32_t peak_cell_load = 0;

  // Every session's event stream folded through MetricsRegistry::merge.
  obs::MetricsSummary metrics;

  // Contention attribution: OWD and stall samples observed while the
  // session's serving cell hosted >1 active user vs. while it was alone.
  obs::Histogram owd_contended_ms = obs::make_owd_histogram("owd_contended_ms");
  obs::Histogram owd_clean_ms = obs::make_owd_histogram("owd_clean_ms");
  obs::Histogram stall_contended_ms =
      obs::make_stall_histogram("stall_contended_ms");
  obs::Histogram stall_clean_ms = obs::make_stall_histogram("stall_clean_ms");

  bool operator==(const FleetReport&) const = default;
};

[[nodiscard]] json::Value fleet_report_to_json(const FleetReport& r);
// Throws std::runtime_error on a schema or kind mismatch, a missing key, or
// an integer that does not fit its member.
[[nodiscard]] FleetReport fleet_report_from_json(const json::Value& v);

}  // namespace rpv::fleet
