#include "metrics/time_series.hpp"

#include <algorithm>
#include <numeric>

namespace rpv::metrics {

std::vector<double> TimeSeries::values_in(sim::TimePoint from,
                                          sim::TimePoint to) const {
  std::vector<double> out;
  const auto lo = std::lower_bound(
      samples_.begin(), samples_.end(), from,
      [](const Sample& s, sim::TimePoint t) { return s.t < t; });
  for (auto it = lo; it != samples_.end() && it->t <= to; ++it) {
    out.push_back(it->value);
  }
  return out;
}

std::optional<double> TimeSeries::max_in(sim::TimePoint from, sim::TimePoint to) const {
  const auto vs = values_in(from, to);
  if (vs.empty()) return std::nullopt;
  return *std::max_element(vs.begin(), vs.end());
}

std::optional<double> TimeSeries::min_in(sim::TimePoint from, sim::TimePoint to) const {
  const auto vs = values_in(from, to);
  if (vs.empty()) return std::nullopt;
  return *std::min_element(vs.begin(), vs.end());
}

std::optional<double> TimeSeries::mean_in(sim::TimePoint from, sim::TimePoint to) const {
  const auto vs = values_in(from, to);
  if (vs.empty()) return std::nullopt;
  return std::accumulate(vs.begin(), vs.end(), 0.0) / static_cast<double>(vs.size());
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.value);
  return out;
}

void PerSecond::add_to(std::size_t k, double value) {
  if (k >= rows_.size()) rows_.resize(k + 1);
  ++rows_[k].n;
  rows_[k].sum += value;
}

void PerSecond::add(sim::TimePoint t, double value) {
  constexpr std::int64_t kSecondUs = 1'000'000;
  if (t.us() < 0) return;
  const auto k = static_cast<std::size_t>(t.us() / kSecondUs);
  // A whole second closes window k - 1 (last in its time order) before it
  // opens window k.
  if (k > 0 && t.us() % kSecondUs == 0) add_to(k - 1, value);
  add_to(k, value);
}

std::optional<double> PerSecond::mean(std::size_t k) const {
  if (k >= rows_.size() || rows_[k].n == 0) return std::nullopt;
  return rows_[k].sum / static_cast<double>(rows_[k].n);
}

std::optional<sim::TimePoint> Highs::first_at_least(double x) const {
  for (const auto& s : samples_) {
    if (s.value >= x) return s.t;
  }
  return std::nullopt;
}

}  // namespace rpv::metrics
