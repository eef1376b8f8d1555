// Output checks and the figure numbers they compare.
#pragma once

#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "fleet/fleet_report.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "pipeline/report.hpp"

namespace perfbench {

// The Fig. 5/6/7 and stall-table numbers of a campaign: per cell, the size
// and fixed quantiles of the pooled OWD, goodput, FPS, SSIM and playback
// latency distributions, then the mean stalls per minute.
[[nodiscard]] std::vector<double> campaign_figures(
    const std::vector<rpv::exec::GridCellResult>& cells);

// The fleet's headline numbers: goodput/stall aggregates and quantiles of
// the merged OWD and stall histograms.
[[nodiscard]] std::vector<double> fleet_figures(
    const rpv::fleet::FleetReport& r);

// Bitwise equality, so NaN == NaN and -0.0 != 0.0.
[[nodiscard]] bool same_numbers(const std::vector<double>& a,
                                const std::vector<double>& b);

// Total of one event kind over every component, by counter name, so counts
// survive events moving between publishing components.
[[nodiscard]] double kind_total(const rpv::obs::MetricsSummary& m,
                                rpv::obs::EventKind k);

// Single-path packet conservation. The report derives packets_in_flight as
// sent - received - media losses - WAN drops, so that sum holds by
// construction; what can fail is in flight >= 0. Empty when it holds,
// otherwise the reason.
[[nodiscard]] std::string check_conservation(
    const rpv::pipeline::SessionReport& r);

// A single-path run's packet counters against the events its bus published
// (`run` is that run's own registry): packets_sent must equal the
// packet-sent events and packets_received the packet-received events.
// Empty when both hold, otherwise the reason.
[[nodiscard]] std::string check_packet_events(
    const rpv::pipeline::SessionReport& r, const rpv::obs::MetricsSummary& run);

// Total player stall time of a set of runs, in ms.
[[nodiscard]] double total_stall_ms(
    const std::vector<rpv::pipeline::SessionReport>& rs);

}  // namespace perfbench
