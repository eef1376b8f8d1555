#include "metrics/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rpv::metrics {

void Cdf::add_all(const std::vector<double>& vs) {
  samples_.insert(samples_.end(), vs.begin(), vs.end());
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double idx = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  if (lo == hi) return samples_[lo];
  const double f = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - f) + samples_[hi] * f;
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::fraction_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::fraction_at_least(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::lower_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(samples_.end() - it) /
         static_cast<double>(samples_.size());
}

}  // namespace rpv::metrics
