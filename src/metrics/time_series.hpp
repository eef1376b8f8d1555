// Timestamped sample series.
//
// Used for the trace-style analyses: network/playback latency over flight
// time (Fig. 8), windowed extraction around handovers (Fig. 9), and rate
// computations (goodput over intervals).
#pragma once

#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace rpv::metrics {

struct Sample {
  sim::TimePoint t;
  double value = 0.0;
};

class TimeSeries {
 public:
  void add(sim::TimePoint t, double value) { samples_.push_back({t, value}); }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // All values with t in [from, to].
  [[nodiscard]] std::vector<double> values_in(sim::TimePoint from,
                                              sim::TimePoint to) const;
  // Max/min of values in the window; nullopt if the window is empty.
  [[nodiscard]] std::optional<double> max_in(sim::TimePoint from,
                                             sim::TimePoint to) const;
  [[nodiscard]] std::optional<double> min_in(sim::TimePoint from,
                                             sim::TimePoint to) const;
  [[nodiscard]] std::vector<double> values() const;

  // Mean of values in the window; nullopt if empty.
  [[nodiscard]] std::optional<double> mean_in(sim::TimePoint from,
                                              sim::TimePoint to) const;

  // JSON field list (json/binder.hpp), defined with the report format.
  template <class IO>
  friend void fields(IO& io, TimeSeries& ts);

 private:
  std::vector<Sample> samples_;  // appended in time order by construction
};

}  // namespace rpv::metrics
