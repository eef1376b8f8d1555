#include "checks.hpp"

#include <bit>
#include <cstdint>

#include "experiment/runner.hpp"

namespace perfbench {

namespace {

constexpr double kQuantiles[] = {0.05, 0.25, 0.5, 0.75, 0.95, 0.99};

void push_cdf(std::vector<double>& out, const rpv::metrics::Cdf& c) {
  out.push_back(static_cast<double>(c.count()));
  if (c.empty()) return;
  for (const double q : kQuantiles) out.push_back(c.quantile(q));
}

// Lower edge of the bucket holding quantile q (edges are the only values a
// fixed-bucket histogram can report).
double histogram_quantile(const rpv::obs::Histogram& h, double q) {
  if (h.total == 0 || h.edges.empty()) return 0.0;
  const double target = q * static_cast<double>(h.total);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += static_cast<double>(h.counts[i]);
    if (seen >= target) return i == 0 ? h.edges.front() : h.edges[i - 1];
  }
  return h.edges.back();
}

}  // namespace

std::vector<double> campaign_figures(
    const std::vector<rpv::exec::GridCellResult>& cells) {
  std::vector<double> out;
  for (const auto& cell : cells) {
    const auto& rs = cell.reports;
    push_cdf(out, rpv::experiment::pool_owd(rs));
    push_cdf(out, rpv::experiment::pool_goodput(rs));
    push_cdf(out, rpv::experiment::pool_fps(rs));
    push_cdf(out, rpv::experiment::pool_ssim(rs));
    push_cdf(out, rpv::experiment::pool_playback_latency(rs));
    out.push_back(rpv::experiment::mean_stalls_per_minute(rs));
  }
  return out;
}

std::vector<double> fleet_figures(const rpv::fleet::FleetReport& r) {
  std::vector<double> out = {r.mean_goodput_mbps,
                             r.min_goodput_mbps,
                             r.max_goodput_mbps,
                             static_cast<double>(r.total_stalls),
                             r.mean_stall_ms_per_session,
                             static_cast<double>(r.peak_cell_load)};
  for (const auto* h : {&r.owd_contended_ms, &r.owd_clean_ms,
                        &r.stall_contended_ms, &r.stall_clean_ms}) {
    out.push_back(static_cast<double>(h->total));
    for (const double q : kQuantiles) out.push_back(histogram_quantile(*h, q));
  }
  for (const auto& h : r.metrics.histograms) {
    out.push_back(static_cast<double>(h.total));
    for (const double q : kQuantiles) out.push_back(histogram_quantile(h, q));
  }
  return out;
}

bool same_numbers(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

double kind_total(const rpv::obs::MetricsSummary& m, rpv::obs::EventKind k) {
  std::string suffix = "/";
  suffix += rpv::obs::event_kind_name(k);
  double total = 0.0;
  for (const auto& c : m.counters) {
    if (c.name.size() > suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += static_cast<double>(c.value);
  }
  return total;
}

std::string check_conservation(const rpv::pipeline::SessionReport& r) {
  if (r.packets_in_flight < 0) {
    return "packets_in_flight " + std::to_string(r.packets_in_flight) +
           " < 0 (sent " + std::to_string(r.packets_sent) + ", received " +
           std::to_string(r.packets_received) + ", media_losses " +
           std::to_string(r.media_losses) + ", wan_drops " +
           std::to_string(r.wan_drops) + ")";
  }
  return {};
}

std::string check_packet_events(const rpv::pipeline::SessionReport& r,
                                const rpv::obs::MetricsSummary& run) {
  using K = rpv::obs::EventKind;
  const double sent = kind_total(run, K::kPacketSent);
  const double received = kind_total(run, K::kPacketReceived);
  if (sent != static_cast<double>(r.packets_sent) ||
      received != static_cast<double>(r.packets_received)) {
    return "packets_sent " + std::to_string(r.packets_sent) + " / received " +
           std::to_string(r.packets_received) + " but the bus published " +
           std::to_string(static_cast<std::uint64_t>(sent)) + " sent / " +
           std::to_string(static_cast<std::uint64_t>(received)) + " received";
  }
  return {};
}

double total_stall_ms(const std::vector<rpv::pipeline::SessionReport>& rs) {
  double total = 0.0;
  for (const auto& r : rs) {
    for (const double ms : r.stall_duration_ms) total += ms;
  }
  return total;
}

}  // namespace perfbench
