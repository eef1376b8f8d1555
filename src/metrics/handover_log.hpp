// Handover event log and the derived statistics the paper reports:
// HO frequency (HO/s), HET distribution (Fig. 4), and the max-to-min
// latency ratio in the 1-second windows before/after each HO (Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/time_series.hpp"
#include "sim/time.hpp"

namespace rpv::metrics {

struct HandoverEvent {
  sim::TimePoint start;       // RRCConnectionReconfiguration received
  sim::Duration het;          // execution time until ...Complete at target
  std::uint32_t source_cell = 0;
  std::uint32_t target_cell = 0;
  bool ping_pong = false;     // returned to a recently-left cell
};

struct LatencyRatio {
  double before = 1.0;  // max/min one-way latency in [start-1s, start]
  double after = 1.0;   // max/min one-way latency in [end, end+1s]
};

class HandoverLog {
 public:
  void record(const HandoverEvent& e) { events_.push_back(e); }

  [[nodiscard]] const std::vector<HandoverEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t count() const { return events_.size(); }

  // Handovers per second over an observation window.
  [[nodiscard]] double frequency(sim::Duration observed) const;
  [[nodiscard]] std::vector<double> het_ms() const;
  [[nodiscard]] std::size_t ping_pong_count() const;

  // Fig. 9 analysis: ±1 s window latency ratios around each HO, computed
  // against a one-way-latency time series (values in ms).
  [[nodiscard]] std::vector<LatencyRatio> latency_ratios(
      const TimeSeries& owd_ms,
      sim::Duration window = sim::Duration::seconds(1.0)) const;

  // JSON field list (json/binder.hpp), defined with the report format.
  template <class IO>
  friend void fields(IO& io, HandoverLog& log);

 private:
  std::vector<HandoverEvent> events_;
};

}  // namespace rpv::metrics
