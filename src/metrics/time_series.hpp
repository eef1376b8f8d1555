// Timestamped sample series, and per-second sums of one.
//
// TimeSeries keeps every sample: the bitrate and capacity traces, and the
// in-memory series a session analyses before it reports (playback latency
// for fault attribution). PerSecond keeps only the count and sum of each
// second, enough for the 1-second timeline of Fig. 8.
#pragma once

#include <cstdint>
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

// Count and sum of the samples in each closed one-second window
// [k s, (k+1) s], k = 0, 1, ...: a sample on a whole second counts in both
// windows it closes and opens. Fed in time order, a window's sum adds its
// samples in the order TimeSeries::mean_in does, so mean(k) equals
// mean_in(k s, (k+1) s) bit for bit.
class PerSecond {
 public:
  struct Row {
    std::uint64_t n = 0;
    double sum = 0.0;
    bool operator==(const Row&) const = default;
  };

  void add(sim::TimePoint t, double value);

  // Mean of window k; nullopt when it holds no sample.
  [[nodiscard]] std::optional<double> mean(std::size_t k) const;
  // Windows 0 .. last one holding a sample.
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  bool operator==(const PerSecond&) const = default;

  // JSON field list (json/binder.hpp), defined with the report format.
  template <class IO>
  friend void fields(IO& io, PerSecond& p);

 private:
  void add_to(std::size_t k, double value);

  std::vector<Row> rows_;
};

}  // namespace rpv::metrics
