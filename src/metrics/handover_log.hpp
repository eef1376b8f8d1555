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

// Exact extremes of the samples that fell in one closed window.
struct WindowExtrema {
  std::uint64_t n = 0;
  double min = 0.0;  // meaningful only when n > 0
  double max = 0.0;

  void add(double v) {
    if (n++ == 0) {
      min = max = v;
    } else if (v < min) {
      min = v;
    } else if (v > max) {
      max = v;
    }
  }
  bool operator==(const WindowExtrema&) const = default;
};

// One-way latency (ms) around one handover, in the windows the Fig. 8 and
// Fig. 9 analyses read.
struct HandoverWindows {
  WindowExtrema lead;    // [start - 3 s, start - 1 s]: Fig. 8's baseline
  WindowExtrema before;  // [start - 1 s, start]
  WindowExtrema after;   // [end, end + 1 s], end = start + het
  bool operator==(const HandoverWindows&) const = default;
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

  // JSON field list (json/binder.hpp), defined with the report format.
  template <class IO>
  friend void fields(IO& io, HandoverLog& log);

 private:
  std::vector<HandoverEvent> events_;
};

// Fig. 9 analysis: the max/min ratios of every handover whose before and
// after windows both hold samples above zero.
[[nodiscard]] std::vector<LatencyRatio> latency_ratios(
    const std::vector<HandoverWindows>& windows);

// Fills HandoverWindows for every event of a HandoverLog that grows while
// one-way-latency samples stream in, without keeping the stream: it keeps a
// ring of recent samples, at least the last 3 s. An event is logged at its
// start, so when the first sample after it arrives the ring still covers
// [start - 3 s, start]; each window then takes the samples inside it until a
// later sample (or finish()) closes it. The extremes equal
// TimeSeries::max_in/min_in over the whole stream.
class HandoverWindowTracker {
 public:
  // `log` must outlive the tracker.
  explicit HandoverWindowTracker(const HandoverLog& log) : log_{&log} {}

  // Samples arrive in time order.
  void add(sim::TimePoint t, double v);
  // One entry per event of the log, in log order. Call once, after the last
  // sample.
  [[nodiscard]] std::vector<HandoverWindows> finish();

 private:
  void open_new_events();
  void take(std::size_t event, sim::TimePoint t, double v);
  [[nodiscard]] const Sample& recent(std::size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  const HandoverLog* log_;
  // Recent samples, oldest first: recent(0 .. size_ - 1) in a power-of-two
  // ring. A full ring drops what is older than 3 s and doubles if that
  // frees nothing, so it always holds at least the last 3 s.
  std::vector<Sample> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<HandoverWindows> windows_;  // one per event seen so far
  std::size_t first_open_ = 0;            // events before it are final
};

}  // namespace rpv::metrics
