// Empirical CDF accumulator.
//
// Collects samples and answers quantile / fraction-below queries: the CDF
// series the paper plots (Figs. 5, 7, 12, 13).
#pragma once

#include <vector>

namespace rpv::metrics {

class Cdf {
 public:
  void add(double v) { samples_.push_back(v); sorted_ = false; }
  void add_all(const std::vector<double>& vs);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // Quantile q in [0, 1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }
  [[nodiscard]] double mean() const;

  // Fraction of samples <= x (the CDF value at x).
  [[nodiscard]] double fraction_below(double x) const;
  // Fraction of samples >= x.
  [[nodiscard]] double fraction_at_least(double x) const;

  // The samples in ascending order.
  [[nodiscard]] const std::vector<double>& samples() const {
    ensure_sorted();
    return samples_;
  }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace rpv::metrics
