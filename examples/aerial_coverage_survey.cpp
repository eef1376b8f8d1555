// Aerial coverage survey: probe-only flights characterizing the cellular
// network before committing to video operations — RTT by altitude, handover
// exposure, and capacity along the flight path. This is the tooling a UAV
// operator would run on a new site, built on the same public API.
//
//   $ ./examples/aerial_coverage_survey [urban|rural|rural-p2]
#include <iostream>
#include <string>

#include "exec/campaign_engine.hpp"
#include "experiment/runner.hpp"
#include "metrics/summary.hpp"
#include "metrics/text_table.hpp"

int main(int argc, char** argv) {
  using namespace rpv;

  experiment::Environment env = experiment::Environment::kUrban;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "rural") env = experiment::Environment::kRuralP1;
    if (arg == "rural-p2") env = experiment::Environment::kRuralP2;
  }

  std::cout << "Surveying aerial cellular coverage over the "
            << experiment::environment_name(env) << " site...\n\n";

  experiment::Campaign c;
  c.scenario.env = env;
  c.scenario.cc = pipeline::CcKind::kNone;
  c.scenario.probe_interval = sim::Duration::millis(100);
  c.scenario.seed = 404;
  c.runs = 6;
  const auto reports = exec::CampaignEngine{}.run(c).reports;

  // RTT by altitude band.
  metrics::TextTable rtt_table({"altitude (m)", "probes", "RTT med (ms)",
                                "RTT p99 (ms)", "outage risk (RTT>500ms %)"});
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {0, 20}, {21, 60}, {61, 100}, {101, 140}}) {
    const auto rtt = experiment::pool_rtt_in_band(reports, lo, hi);
    rtt_table.add_row(
        {metrics::TextTable::num(lo, 0) + "-" + metrics::TextTable::num(hi, 0),
         std::to_string(rtt.count()), metrics::TextTable::num(rtt.median(), 1),
         metrics::TextTable::num(rtt.quantile(0.99), 0),
         metrics::TextTable::num(100.0 * (1.0 - rtt.fraction_below(500.0)), 2)});
  }
  std::cout << "Latency vs altitude:\n" << rtt_table.render();

  // Handover exposure.
  const auto freq = experiment::pool_ho_frequency(reports);
  const auto het = experiment::pool_het(reports);
  const auto het_sum = metrics::Summary::of(het);
  double freq_mean = 0.0;
  for (const double f : freq) freq_mean += f;
  freq_mean /= static_cast<double>(freq.size());
  std::size_t ping_pongs = 0, cells = 0;
  for (const auto& r : reports) {
    ping_pongs += r.handovers.ping_pong_count();
    cells = std::max(cells, r.cells_seen);
  }
  std::cout << "\nHandover exposure: " << metrics::TextTable::num(freq_mean, 3)
            << " HO/s, HET median " << metrics::TextTable::num(het_sum.median, 1)
            << " ms (max " << metrics::TextTable::num(het_sum.max, 0)
            << " ms), " << ping_pongs << " ping-pong HOs, up to " << cells
            << " distinct cells per flight.\n";

  // Capacity along the path.
  metrics::Cdf cap;
  for (const auto& r : reports) cap.merge(r.capacity_mbps);
  std::cout << "\nUplink capacity along the trajectory: median "
            << metrics::TextTable::num(cap.median(), 1) << " Mbps, p10 "
            << metrics::TextTable::num(cap.quantile(0.10), 1) << " Mbps, p90 "
            << metrics::TextTable::num(cap.quantile(0.90), 1) << " Mbps.\n";

  const double supportable = cap.quantile(0.10);
  std::cout << "\nRecommendation: a static stream should stay below ~"
            << metrics::TextTable::num(supportable, 0)
            << " Mbps (10th-percentile capacity) for stable delivery;\n"
            << "above that, use adaptive streaming (GCC/SCReAM).\n";
  return 0;
}
