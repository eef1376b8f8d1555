#include "experiment/runner.hpp"

namespace rpv::experiment {

namespace {
// Folds one per-report distribution over the runs.
template <typename Getter>
metrics::Cdf fold(const std::vector<pipeline::SessionReport>& rs, Getter get) {
  metrics::Cdf cdf;
  for (const auto& r : rs) cdf.merge(get(r));
  return cdf;
}

// Bins one per-report sample vector of every run.
template <typename Getter>
metrics::Cdf pool(const std::vector<pipeline::SessionReport>& rs, Getter get) {
  metrics::Cdf cdf;
  for (const auto& r : rs) cdf.add_all(get(r));
  return cdf;
}
}  // namespace

metrics::Cdf pool_owd(const std::vector<pipeline::SessionReport>& rs) {
  return fold(rs, [](const auto& r) -> const metrics::Cdf& { return r.owd_ms; });
}

metrics::Cdf pool_fps(const std::vector<pipeline::SessionReport>& rs) {
  return pool(rs, [](const auto& r) -> const auto& { return r.fps_windows; });
}

metrics::Cdf pool_ssim(const std::vector<pipeline::SessionReport>& rs) {
  return fold(rs, [](const auto& r) -> const metrics::Cdf& { return r.ssim; });
}

metrics::Cdf pool_playback_latency(const std::vector<pipeline::SessionReport>& rs) {
  return fold(rs, [](const auto& r) -> const metrics::Cdf& {
    return r.playback_latency_ms;
  });
}

metrics::Cdf pool_goodput(const std::vector<pipeline::SessionReport>& rs) {
  return pool(rs, [](const auto& r) -> const auto& {
    return r.goodput_mbps_windows;
  });
}

std::vector<double> pool_het(const std::vector<pipeline::SessionReport>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) {
    const auto het = r.handovers.het_ms();
    out.insert(out.end(), het.begin(), het.end());
  }
  return out;
}

std::vector<double> pool_ho_frequency(const std::vector<pipeline::SessionReport>& rs) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(r.handovers.frequency(r.duration));
  return out;
}

std::vector<double> pool_latency_ratio_before(
    const std::vector<pipeline::SessionReport>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) {
    for (const auto& lr : metrics::latency_ratios(r.handover_owd_ms)) {
      out.push_back(lr.before);
    }
  }
  return out;
}

std::vector<double> pool_latency_ratio_after(
    const std::vector<pipeline::SessionReport>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) {
    for (const auto& lr : metrics::latency_ratios(r.handover_owd_ms)) {
      out.push_back(lr.after);
    }
  }
  return out;
}

double mean_stalls_per_minute(const std::vector<pipeline::SessionReport>& rs) {
  if (rs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : rs) total += r.stalls_per_minute;
  return total / static_cast<double>(rs.size());
}

double mean_per(const std::vector<pipeline::SessionReport>& rs) {
  if (rs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : rs) total += r.per;
  return total / static_cast<double>(rs.size());
}

metrics::Cdf pool_rtt_in_band(const std::vector<pipeline::SessionReport>& rs,
                              double lo, double hi) {
  metrics::Cdf cdf;
  for (const auto& r : rs) {
    for (const auto& [alt, rtt] : r.rtt_by_altitude) {
      if (alt >= lo && alt < hi) cdf.add(rtt);
    }
  }
  return cdf;
}

}  // namespace rpv::experiment
