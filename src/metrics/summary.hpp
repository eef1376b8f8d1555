// Boxplot-style summary of a sample set: min/q1/median/q3/max/mean plus
// outlier counts — the representation behind the paper's boxplot figures
// (Figs. 4, 6, 9, 10). The sets are small (per-window or per-handover
// values), so it sorts its own copy and every statistic is exact.
#pragma once

#include <string>
#include <vector>

namespace rpv::metrics {

struct Summary {
  std::size_t n = 0;
  double min = 0.0, q1 = 0.0, median = 0.0, q3 = 0.0, max = 0.0, mean = 0.0;
  double whisker_lo = 0.0, whisker_hi = 0.0;  // 1.5 IQR fences clamped to data
  std::size_t outliers_hi = 0;                // samples above the upper fence

  static Summary of(std::vector<double> samples);
  [[nodiscard]] std::string to_string() const;
};

}  // namespace rpv::metrics
