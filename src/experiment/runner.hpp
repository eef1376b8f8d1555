// Campaigns and pooling: a campaign repeats a scenario across seeds (the
// paper aggregates 130 measurement runs over ~90 flights; exec::CampaignEngine
// flies them), and the pooling helpers fold the per-run reports into the
// distributions and sample sets the figures plot.
#pragma once

#include <vector>

#include "experiment/scenario.hpp"
#include "metrics/cdf.hpp"
#include "metrics/summary.hpp"
#include "pipeline/report.hpp"

namespace rpv::experiment {

struct Campaign {
  Scenario scenario;       // seed field is the base seed
  int runs = 5;
};

// --- Pooling helpers ---
// The distributions fold the reports' bin counts (owd, ssim, playback
// latency) or bin their per-window samples (fps, goodput); the vectors
// concatenate per-run values.
[[nodiscard]] metrics::Cdf pool_owd(const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] metrics::Cdf pool_fps(const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] metrics::Cdf pool_ssim(const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] metrics::Cdf pool_playback_latency(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] metrics::Cdf pool_goodput(const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] std::vector<double> pool_het(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] std::vector<double> pool_ho_frequency(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] std::vector<double> pool_latency_ratio_before(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] std::vector<double> pool_latency_ratio_after(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] double mean_stalls_per_minute(
    const std::vector<pipeline::SessionReport>& rs);
[[nodiscard]] double mean_per(const std::vector<pipeline::SessionReport>& rs);
// RTT samples restricted to an altitude band [lo, hi) in metres (Fig. 13).
[[nodiscard]] metrics::Cdf pool_rtt_in_band(
    const std::vector<pipeline::SessionReport>& rs, double lo, double hi);

}  // namespace rpv::experiment
