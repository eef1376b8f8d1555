#include "metrics/summary.hpp"

#include <algorithm>
#include <sstream>

#include "metrics/cdf.hpp"

namespace rpv::metrics {

Summary Summary::of(const std::vector<double>& samples) {
  Summary out;
  if (samples.empty()) return out;
  Cdf cdf;
  cdf.add_all(samples);
  const auto& s = cdf.samples();
  out.n = s.size();
  out.min = s.front();
  out.max = s.back();
  out.q1 = cdf.quantile(0.25);
  out.median = cdf.median();
  out.q3 = cdf.quantile(0.75);
  out.mean = cdf.mean();
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
