#include "cc/scream/scream_controller.hpp"

#include <algorithm>
#include <cmath>

#include "rtp/sequence.hpp"

namespace rpv::cc::scream {

ScreamController::ScreamController(ScreamConfig cfg)
    : cfg_{cfg},
      rate_bps_{cfg.initial_rate_bps},
      cwnd_{std::max<std::size_t>(cfg.min_cwnd_bytes, 20 * cfg.mss_bytes)} {}

void ScreamController::on_packet_sent(const SentPacket& p) {
  const std::int64_t seq = unwrapper_.unwrap(p.transport_seq);
  last_sent_seq_ = p.transport_seq;
  flights_.insert(seq, Flight{p.size_bytes, p.send_time});
  bytes_in_flight_ += p.size_bytes;
}

void ScreamController::declare_lost(std::int64_t seq, sim::TimePoint now) {
  const Flight* flight = flights_.find(seq);
  if (flight == nullptr) return;
  bytes_in_flight_ -= std::min(bytes_in_flight_, flight->size_bytes);
  flights_.erase(seq);
  ++declared_lost_;
  pending_loss_ = true;
  maybe_loss_event(now);
}

void ScreamController::maybe_loss_event(sim::TimePoint now) {
  if (!pending_loss_) return;
  // At most one multiplicative backoff per guard interval (roughly one RTT).
  if (!last_loss_event_.is_never() &&
      now - last_loss_event_ < cfg_.loss_event_guard) {
    pending_loss_ = false;
    return;
  }
  last_loss_event_ = now;
  pending_loss_ = false;
  ++loss_events_;
  cwnd_ = std::max(cfg_.min_cwnd_bytes,
                   static_cast<std::size_t>(static_cast<double>(cwnd_) *
                                            cfg_.loss_beta_cwnd));
  rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * cfg_.loss_beta_rate);
}

void ScreamController::on_feedback(const rtp::FeedbackReport& report,
                                   sim::TimePoint now) {
  if (report.results.empty()) return;

  // Unwrap the report against the send-side numbering: the first result's
  // seq is located near the in-flight range.
  std::size_t bytes_newly_acked = 0;
  std::int64_t highest_reported = -1;

  for (const auto& r : report.results) {
    // Send-side numbering is dense, so the unwrapped seq is the 16-bit
    // offset back from the newest sent seq.
    const std::int64_t newest = unwrapper_.highest();
    const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
    const std::int64_t seq = newest - back;
    highest_reported = std::max(highest_reported, seq);
    if (!r.received) continue;

    const Flight* flight = flights_.find(seq);
    if (flight == nullptr) continue;  // already acked or declared lost
    const double owd_ms = (r.arrival - flight->send_time).ms();
    const double rtt_ms = (now - flight->send_time).ms();
    srtt_ms_ = 0.9 * srtt_ms_ + 0.1 * rtt_ms;
    if (owd_ms < base_owd_ms_) base_owd_ms_ = owd_ms;
    window_min_owd_ms_ = std::min(window_min_owd_ms_, owd_ms);
    if (now - base_window_start_ > cfg_.base_refresh) {
      base_owd_ms_ = window_min_owd_ms_;
      window_min_owd_ms_ = 1e9;
      base_window_start_ = now;
    }
    last_qdelay_ms_ = std::max(0.0, owd_ms - base_owd_ms_);

    bytes_newly_acked += flight->size_bytes;
    bytes_in_flight_ -= std::min(bytes_in_flight_, flight->size_bytes);
    flights_.erase(seq);
  }

  // RFC 8888 bounded-window loss detection: anything still unacked at or
  // below the bottom of the reported window can never be acknowledged by a
  // later report — the Ericsson implementation treats it as lost. During
  // post-handover arrival bursts this mislabels *received* packets.
  if (highest_reported >= 0 && !report.results.empty()) {
    const std::int64_t window_low =
        highest_reported - static_cast<std::int64_t>(report.results.size()) + 1;
    while (!flights_.empty() && flights_.front() < window_low) {
      declare_lost(flights_.front(), now);
    }
    // Explicitly-reported losses inside the window (genuine radio losses)
    // only count once the window has moved past them; handled above on the
    // next report. Reported-and-missing packets older than half the window
    // are treated as lost immediately.
    for (const auto& r : report.results) {
      if (r.received) continue;
      const std::int64_t newest = unwrapper_.highest();
      const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
      const std::int64_t seq = newest - back;
      if (highest_reported - seq >
          static_cast<std::int64_t>(report.results.size()) / 2) {
        declare_lost(seq, now);
      }
    }
  }

  // Congestion-window adaptation against the queuing-delay target.
  const double off_target =
      (cfg_.qdelay_target_ms - last_qdelay_ms_) / cfg_.qdelay_target_ms;
  if (bytes_newly_acked > 0) {
    const double delta = cfg_.gain * off_target *
                         static_cast<double>(bytes_newly_acked) *
                         static_cast<double>(cfg_.mss_bytes) /
                         static_cast<double>(cwnd_);
    const double new_cwnd = static_cast<double>(cwnd_) + delta;
    cwnd_ = static_cast<std::size_t>(
        std::max(static_cast<double>(cfg_.min_cwnd_bytes), new_cwnd));
  }
  maybe_loss_event(now);

  // The window must keep pace with the minimum media rate, or the encoder's
  // bitrate floor outruns the self-clock permanently.
  const auto cwnd_floor = static_cast<std::size_t>(
      cfg_.min_rate_bps * (srtt_ms_ / 1e3) / 8.0);
  cwnd_ = std::max(cwnd_, std::max(cfg_.min_cwnd_bytes, cwnd_floor));

  update_rate(now);
}

void ScreamController::update_rate(sim::TimePoint now) {
  double dt = 0.1;
  if (!last_rate_update_.is_never()) {
    dt = std::clamp((now - last_rate_update_).sec(), 0.0, 0.5);
  }
  last_rate_update_ = now;

  // The window supports at most cwnd per srtt.
  const double cwnd_rate =
      static_cast<double>(cwnd_) * 8.0 / std::max(srtt_ms_ / 1e3, 1e-3);

  const bool queue_ok = rtp_queue_delay_ms_ < cfg_.queue_hold_ms;
  const bool qdelay_ok = last_qdelay_ms_ < 0.75 * cfg_.qdelay_target_ms;
  if (queue_ok && qdelay_ok) {
    // Ramp-up speed scales with the operating point (RFC 8298's relative
    // rate increase): recovery from a backoff at high bitrate is much
    // faster than the initial conservative ramp.
    const double scale = std::max(1.0, rate_bps_ / 6e6);
    rate_bps_ += cfg_.ramp_up_bps_per_sec * scale * dt;
  } else if (last_qdelay_ms_ > cfg_.qdelay_target_ms) {
    rate_bps_ *= (1.0 - 0.5 * dt);
  }
  rate_bps_ = std::min(rate_bps_, cwnd_rate);
  rate_bps_ = std::clamp(rate_bps_, cfg_.min_rate_bps, cfg_.max_rate_bps);
  publish_target(now, rate_bps_);
}

void ScreamController::on_tick(sim::TimePoint now) {
  // Radio silence recovery: flights older than the timeout free the window.
  while (!flights_.empty()) {
    const std::int64_t oldest = flights_.front();
    if (now - flights_.find(oldest)->send_time < cfg_.flight_timeout) break;
    declare_lost(oldest, now);
  }
}

void ScreamController::on_feedback_timeout(sim::TimePoint now, double factor) {
  // RFC 8888 silence: both the window and the media rate decay so the
  // self-clock restarts gently when acknowledgments resume.
  cwnd_ = std::max(cfg_.min_cwnd_bytes,
                   static_cast<std::size_t>(static_cast<double>(cwnd_) * factor));
  rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * factor);
  last_rate_update_ = now;
  publish_target(now, rate_bps_);
}

void ScreamController::on_queue_discard(sim::TimePoint now) {
  rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * cfg_.queue_discard_rate_factor);
  rtp_queue_delay_ms_ = 0.0;
  (void)now;
}

}  // namespace rpv::cc::scream
