// SCReAM — Self-Clocked Rate Adaptation for Multimedia (Johansson, RFC 8298;
// the Ericsson Research implementation the paper uses).
//
// SCReAM is window-limited: a congestion window over bytes-in-flight is the
// primary control, adjusted against a one-way queuing-delay target, with
// multiplicative decrease on loss. The media target bitrate follows the
// window with a bounded ramp-up speed (the paper measures ~25 s from 2 to
// 25 Mbps) and backs off when the sender-side RTP queue builds.
//
// Feedback is RFC 8888 with a *bounded* acknowledgment window (default 64
// packets, the paper's mitigation raises it to 256). When bursts larger than
// the window arrive between two feedback reports — e.g. a bufferbloat queue
// draining after a handover — packets fall out of the window unacknowledged
// and are misread as lost, needlessly lowering the bitrate (§4.2.1). This
// implementation reproduces that pathology faithfully.
#pragma once

#include <cstdint>

#include "cc/rate_controller.hpp"
#include "rtp/seq_window.hpp"
#include "rtp/sequence.hpp"

namespace rpv::cc::scream {

struct ScreamConfig {
  double initial_rate_bps = 2e6;
  // The encoder cannot go below the paper's 2 Mbps floor; letting the
  // controller target less than the media source produces would wedge the
  // RTP queue in permanent discard.
  double min_rate_bps = 2e6;
  double max_rate_bps = 30e6;
  std::size_t mss_bytes = 1240;
  std::size_t min_cwnd_bytes = 2 * 1240;
  double qdelay_target_ms = 90.0;
  double gain = 1.0;               // cwnd gain on off-target
  double loss_beta_cwnd = 0.8;     // cwnd factor on a loss event
  double loss_beta_rate = 0.94;    // target-rate factor on a loss event
  double ramp_up_bps_per_sec = 1.0e6;  // calibrated to the ~25 s ramp
  sim::Duration loss_event_guard = sim::Duration::millis(200);
  // RTP-queue coupling: hold the ramp when the send queue builds, back off
  // on a queue discard.
  double queue_hold_ms = 40.0;
  double queue_discard_rate_factor = 0.9;
  // Packets unacked for this long count as lost (radio-silence recovery).
  sim::Duration flight_timeout = sim::Duration::seconds(1.5);
  // Slow base-delay refresh: forgets clock drift / path changes.
  sim::Duration base_refresh = sim::Duration::seconds(30.0);
};

class ScreamController final : public RateController {
 public:
  explicit ScreamController(ScreamConfig cfg = {});

  void on_packet_sent(const SentPacket& p) override;
  void on_feedback(const rtp::FeedbackReport& report, sim::TimePoint now) override;
  void on_feedback_timeout(sim::TimePoint now, double factor) override;

  [[nodiscard]] double target_bitrate_bps() const override { return rate_bps_; }
  [[nodiscard]] bool window_limited() const override { return true; }
  [[nodiscard]] bool can_send(std::size_t bytes) const override {
    return bytes_in_flight_ + bytes <= cwnd_;
  }
  [[nodiscard]] std::string name() const override { return "scream"; }

  // Called by the sender pipeline.
  void on_tick(sim::TimePoint now) override;  // expire stale flights
  void on_send_queue_delay(double ms) override { rtp_queue_delay_ms_ = ms; }
  void on_queue_discard(sim::TimePoint now) override;  // RTP queue flushed

  // Introspection.
  [[nodiscard]] std::size_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] double qdelay_ms() const { return last_qdelay_ms_; }
  [[nodiscard]] double srtt_ms() const { return srtt_ms_; }
  [[nodiscard]] std::uint64_t loss_events() const { return loss_events_; }
  [[nodiscard]] std::uint64_t packets_declared_lost() const { return declared_lost_; }

 private:
  struct Flight {
    std::size_t size_bytes = 0;
    sim::TimePoint send_time;
  };

  void declare_lost(std::int64_t seq, sim::TimePoint now);
  void maybe_loss_event(sim::TimePoint now);
  void update_rate(sim::TimePoint now);

  ScreamConfig cfg_;
  double rate_bps_;
  std::size_t cwnd_;
  std::size_t bytes_in_flight_ = 0;

  // In flight, keyed by unwrapped transport seq; the window spans the
  // oldest to the newest unacked packet and grows as the span needs.
  rtp::SeqWindow<Flight> flights_;
  rtp::SeqUnwrapper unwrapper_;
  std::uint16_t last_sent_seq_ = 0;

  double base_owd_ms_ = 1e9;
  double window_min_owd_ms_ = 1e9;
  sim::TimePoint base_window_start_ = sim::TimePoint::origin();
  double last_qdelay_ms_ = 0.0;
  double srtt_ms_ = 50.0;
  double rtp_queue_delay_ms_ = 0.0;

  bool pending_loss_ = false;
  sim::TimePoint last_loss_event_ = sim::TimePoint::never();
  sim::TimePoint last_rate_update_ = sim::TimePoint::never();
  std::uint64_t loss_events_ = 0;
  std::uint64_t declared_lost_ = 0;
};

}  // namespace rpv::cc::scream
