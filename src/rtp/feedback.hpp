// RTCP congestion-control feedback formats.
//
// The paper's two CC algorithms use different RTCP extensions:
//  * GCC consumes transport-wide-CC feedback
//    (draft-holmer-rmcat-transport-wide-cc-extensions-01): the receiver
//    reports the arrival time of every transport sequence number since the
//    previous report;
//  * SCReAM consumes RFC 8888 congestion control feedback: reports are
//    generated on a fixed clock (10 ms in the Ericsson library) and cover
//    the packet with the highest received sequence number plus a *bounded
//    window* of preceding packets. At rates above ~7 Mbps more packets
//    arrive between two reports than the default 64-packet window covers,
//    so received packets go unacknowledged and SCReAM misreads them as
//    lost — the pathology of §4.2.1. The window is configurable (64 or the
//    paper's mitigation, 256).
#pragma once

#include <cstdint>
#include <vector>

#include "rtp/seq_window.hpp"
#include "rtp/sequence.hpp"
#include "sim/time.hpp"

namespace rpv::rtp {

struct PacketResult {
  std::uint16_t transport_seq = 0;
  bool received = false;
  sim::TimePoint arrival;  // valid when received
};

struct FeedbackReport {
  sim::TimePoint generated;
  std::vector<PacketResult> results;  // ascending transport_seq
  // PLI-style keyframe-recovery request (may ride on an otherwise empty
  // report: the static baseline has no CC feedback but still recovers).
  bool keyframe_request = false;
};

// Receiver-side collector for transport-wide-CC feedback (GCC).
class TwccCollector {
 public:
  void on_packet(std::uint16_t transport_seq, sim::TimePoint arrival);

  // Build a report covering everything received since the last report,
  // including explicit "lost" entries for gaps.
  [[nodiscard]] FeedbackReport build_report(sim::TimePoint now);
  [[nodiscard]] bool has_data() const { return !pending_.empty(); }

 private:
  // Arrivals since the last report, in arrival order (the first arrival wins
  // for a duplicated seq). Kept flat — one push_back per packet — and ranged
  // over in build_report via the tracked min/max; this is the receive-side
  // per-packet hot path.
  std::vector<std::pair<std::int64_t, sim::TimePoint>> pending_;
  std::int64_t min_pending_ = 0;
  std::int64_t max_pending_ = -1;
  std::int64_t last_reported_ = -1;
  SeqUnwrapper unwrapper_;
};

// Receiver-side collector for RFC 8888 feedback (SCReAM).
class Rfc8888Collector {
 public:
  // Throws std::invalid_argument unless ack_window >= 1.
  explicit Rfc8888Collector(int ack_window = 64);

  void on_packet(std::uint16_t transport_seq, sim::TimePoint arrival);

  // Report covering [highest - window + 1, highest]: the bounded window is
  // what loses acknowledgments at high rates (see file comment).
  [[nodiscard]] FeedbackReport build_report(sim::TimePoint now) const;
  [[nodiscard]] bool has_data() const { return unwrapper_.started(); }
  [[nodiscard]] int ack_window() const { return ack_window_; }
  // Arrival-ring slots: zero until the first packet, then at least
  // 4 * ack_window + 1 for the collector's lifetime.
  [[nodiscard]] std::size_t ring_slots() const { return arrivals_.capacity(); }

 private:
  int ack_window_;
  // Arrivals at or above highest - 4 * window, keyed by unwrapped seq (the
  // first arrival wins). The span never exceeds the ring reserved on the
  // first packet, so the per-packet path does not allocate.
  SeqWindow<sim::TimePoint> arrivals_;
  SeqUnwrapper unwrapper_;
};

}  // namespace rpv::rtp
