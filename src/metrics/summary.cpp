#include "metrics/summary.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace rpv::metrics {
namespace {

// Linear interpolation between order statistics of sorted `s`.
double quantile_of_sorted(const std::vector<double>& s, double q) {
  const double idx = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  if (lo == hi) return s[lo];
  const double f = idx - static_cast<double>(lo);
  return s[lo] * (1.0 - f) + s[hi] * f;
}

}  // namespace

Summary Summary::of(std::vector<double> s) {
  Summary out;
  if (s.empty()) return out;
  std::sort(s.begin(), s.end());
  out.n = s.size();
  out.min = s.front();
  out.max = s.back();
  out.q1 = quantile_of_sorted(s, 0.25);
  out.median = quantile_of_sorted(s, 0.5);
  out.q3 = quantile_of_sorted(s, 0.75);
  out.mean =
      std::accumulate(s.begin(), s.end(), 0.0) / static_cast<double>(s.size());
  const double iqr = out.q3 - out.q1;
  const double lo_fence = out.q1 - 1.5 * iqr;
  const double hi_fence = out.q3 + 1.5 * iqr;
  out.whisker_lo = out.min;
  out.whisker_hi = out.max;
  for (const double v : s) {
    if (v >= lo_fence) { out.whisker_lo = v; break; }
  }
  for (auto it = s.rbegin(); it != s.rend(); ++it) {
    if (*it <= hi_fence) { out.whisker_hi = *it; break; }
  }
  out.outliers_hi = static_cast<std::size_t>(
      std::count_if(s.begin(), s.end(), [&](double v) { return v > hi_fence; }));
  return out;
}

std::string Summary::to_string() const {
  std::ostringstream os;
  os << "n=" << n << " min=" << min << " q1=" << q1 << " med=" << median
     << " q3=" << q3 << " max=" << max << " mean=" << mean
     << " outliers_hi=" << outliers_hi;
  return os.str();
}

}  // namespace rpv::metrics
