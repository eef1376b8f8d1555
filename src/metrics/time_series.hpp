// Timestamped sample series, and the bounded summaries a report keeps of one.
//
// TimeSeries keeps every sample: the in-memory series a session analyses
// before it reports (playback latency for fault attribution, goodput
// windows). A report keeps summaries instead: PerSecond holds only the count
// and sum of each second, enough for the 1-second timeline of Fig. 8, and
// Highs only the samples that set a new high, enough for the ramp-up time to
// any rate (§4.2.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace rpv::metrics {

struct Sample {
  sim::TimePoint t;
  double value = 0.0;
  bool operator==(const Sample&) const = default;
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

// The samples of a series, fed in time order, that exceed every earlier
// sample. The first sample at or above any level is one of them (everything
// before it lies below that level), so first_at_least(x) answers what a scan
// of the whole series would, from a list that grows only while the series
// climbs.
class Highs {
 public:
  void add(sim::TimePoint t, double value) {
    if (samples_.empty() || value > samples_.back().value) {
      samples_.push_back({t, value});
    }
  }

  // Time of the first sample >= x; nullopt when none reached it.
  [[nodiscard]] std::optional<sim::TimePoint> first_at_least(double x) const;
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  bool operator==(const Highs&) const = default;

  // JSON field list (json/binder.hpp), defined with the report format. The
  // reader throws std::runtime_error unless the values strictly rise and the
  // times never fall.
  template <class IO>
  friend void fields(IO& io, Highs& h);

 private:
  std::vector<Sample> samples_;
};

}  // namespace rpv::metrics
