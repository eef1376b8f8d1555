#include "pipeline/video_sender.hpp"

#include <algorithm>

#include "net/packet_events.hpp"
#include "predict/proactive_adapter.hpp"

namespace rpv::pipeline {

VideoSender::VideoSender(sim::Simulator& simulator, SenderConfig cfg,
                         std::unique_ptr<cc::RateController> controller,
                         FrameTable& table, TransmitFn transmit, sim::Rng rng,
                         std::shared_ptr<rtp::FecGroupTable> fec_table)
    : sim_{simulator},
      cfg_{cfg},
      cc_{std::move(controller)},
      table_{table},
      transmit_{std::move(transmit)},
      source_{cfg.source, rng.fork()},
      encoder_{cfg.encoder, rng.fork()},
      packetizer_{cfg.packetizer} {
  if (cfg_.fec_group_size > 0 && fec_table) {
    fec_ = std::make_unique<rtp::FecEncoder>(
        rtp::FecConfig{cfg_.fec_group_size}, std::move(fec_table));
  }
}

void VideoSender::start(sim::TimePoint start, sim::TimePoint end) {
  end_time_ = end;
  sim_.schedule_at(start, [this] { frame_tick(); });
}

double VideoSender::queue_delay_ms() const {
  const double rate = std::max(cc_->target_bitrate_bps(), 1e5);
  return static_cast<double>(queue_bytes_) * 8.0 / rate * 1e3;
}

void VideoSender::frame_tick() {
  const auto now = sim_.now();
  if (now > end_time_) return;
  ++tick_count_;

  cc_->on_tick(now);
  cc_->on_send_queue_delay(queue_delay_ms());

  if (cfg_.resilience.enabled) {
    watchdog_tick(now);
    const bool recovering = watchdog_active_ || now < recovery_flush_until_;
    // The loss burst and delay spike in the first post-silence reports are
    // attributable to the outage itself, which the watchdog already decayed
    // for; letting the CC react to them from that decayed base collapses it
    // far below what the encoder can emit, and the mismatch only builds
    // sender queue. Pin the controller at the encoder floor while
    // recovering.
    const double floor = encoder_.min_output_bps();
    const double target = cc_->target_bitrate_bps();
    if (recovering && target < floor) {
      cc_->on_feedback_timeout(now, floor / target);
    }
    // Recovery flush: while silent (and briefly after), stale frames are
    // worthless — a fresh keyframe will replace them anyway.
    if (recovering &&
        queue_delay_ms() > cfg_.resilience.recovery_discard.ms()) {
      discarded_ += queue_.size();
      queue_.clear();
      queue_bytes_ = 0;
    }
  }

  // SCReAM-style queue discard: flush everything older than the threshold.
  if (cfg_.discard_queue > sim::Duration::zero() &&
      queue_delay_ms() > cfg_.discard_queue.ms()) {
    discarded_ += queue_.size();
    ++discard_events_;
    queue_.clear();
    queue_bytes_ = 0;
    cc_->on_queue_discard(now);
  }

  double target = cc_->target_bitrate_bps();
  if (proactive_) {
    // Post-HO recovery flush: the bearer just came back and the queue holds
    // frames encoded before (or during) the interruption — stale by now.
    if (proactive_->should_flush(now, queue_delay_ms()) && !queue_.empty()) {
      discarded_ += queue_.size();
      queue_.clear();
      queue_bytes_ = 0;
    }
    // Pre-HO bitrate dip: during a predicted (or running) handover window,
    // cap the encoder at a fraction of the forecast capacity so the link
    // queue stays shallow through the interruption.
    target = std::min(target, proactive_->bitrate_cap_bps(now));
    // Honor a deferred keyframe as soon as the HO window closes.
    if (keyframe_pending_ && !proactive_->defer_keyframe(now)) {
      encoder_.force_keyframe();
      keyframe_pending_ = false;
    }
  }
  encoder_.set_target_bitrate(target);
  target_highs_.add(now, target);

  // Ladder levels 2/3 shed capture FPS: every 2nd (then 4th) frame only.
  if (ladder_level_ >= 2) {
    const std::uint32_t divisor = ladder_level_ >= 3 ? 4 : 2;
    if (tick_count_ % divisor != 0) {
      pump();
      sim_.schedule_in(cfg_.frame_interval, [this] { frame_tick(); });
      return;
    }
  }

  const double complexity = source_.next_complexity();
  bool shot_cut = source_.at_shot_cut();
  if (shot_cut && proactive_ && proactive_->defer_keyframe(now)) {
    // A keyframe is several times the size of a delta frame; emitting one
    // into the HET window would sit in the paused queue and drain as a
    // latency spike. Defer it past the window.
    proactive_->note_keyframe_deferred();
    keyframe_pending_ = true;
    shot_cut = false;
  }
  const video::Frame frame =
      encoder_.encode(frames_encoded_, now, complexity, shot_cut);
  ++frames_encoded_;
  table_.put(frame);
  if (bus_ && bus_->wants(obs::EventKind::kFrameEncoded)) {
    bus_->publish(obs::Component::kSender, obs::EventKind::kFrameEncoded, now,
                  obs::FramePayload{frame.id,
                                    static_cast<std::uint32_t>(frame.size_bytes),
                                    frame.keyframe, false});
  }

  packetizer_.packetize(frame, packetize_scratch_);
  for (auto& p : packetize_scratch_) {
    std::optional<net::Packet> parity;
    if (fec_) {
      // Transport-wide sequence numbers must follow the wire order or the
      // feedback reports misread in-flight parity gaps as losses; with FEC
      // active the sender numbers every packet (media + parity) itself.
      p.transport_seq = fec_transport_seq_++;
      parity = fec_->on_media_packet(p);
    }
    queue_bytes_ += p.size_bytes;
    queue_.push_back(std::move(p));
    if (parity) {
      parity->transport_seq = fec_transport_seq_++;
      queue_bytes_ += parity->size_bytes;
      queue_.push_back(std::move(*parity));
    }
  }
  pump();

  sim_.schedule_in(cfg_.frame_interval, [this] { frame_tick(); });
}

void VideoSender::schedule_pump(sim::Duration in) {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  sim_.schedule_in(in, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

void VideoSender::pump() {
  const auto now = sim_.now();
  if (queue_.empty()) return;
  if (now < next_send_allowed_) {
    schedule_pump(next_send_allowed_ - now);
    return;
  }
  net::Packet& head = queue_.front();
  if (cc_->window_limited() && !cc_->can_send(head.size_bytes)) {
    // Self-clocked: wait for acknowledgments (or the blocked poll).
    schedule_pump(cfg_.blocked_poll);
    return;
  }

  net::Packet p = std::move(head);
  queue_.pop_front();
  queue_bytes_ -= p.size_bytes;
  p.enqueued = now;

  cc_->on_packet_sent({p.transport_seq, p.size_bytes, now});
  ++packets_sent_;
  bytes_sent_ += p.size_bytes;
  if (bus_ && bus_->wants(obs::EventKind::kPacketSent)) {
    bus_->publish(obs::Component::kSender, obs::EventKind::kPacketSent, now,
                  net::packet_payload(p));
  }

  // Pacing clock for the next packet.
  const double pacing = std::max(cc_->pacing_rate_bps(), 1e5);
  next_send_allowed_ =
      now + sim::Duration::seconds(static_cast<double>(p.size_bytes) * 8.0 / pacing);

  transmit_(std::move(p));

  if (!queue_.empty()) schedule_pump(next_send_allowed_ - now);
}

void VideoSender::watchdog_tick(sim::TimePoint now) {
  if (!feedback_expected_) return;  // nothing to miss (static baseline)
  const auto& rc = cfg_.resilience;
  const auto silence = now - last_feedback_at_;
  if (silence <= rc.feedback_timeout) return;

  if (!watchdog_active_) {
    // Watchdog fires once per silence episode. Flush the RTP queue: frames
    // packetized before the silence began are stale by the time the link
    // heals, and draining them first only delays recovery.
    watchdog_active_ = true;
    ++watchdog_events_;
    if (!queue_.empty()) {
      discarded_ += queue_.size();
      queue_.clear();
      queue_bytes_ = 0;
    }
    next_decay_at_ = now;
  }
  if (now >= next_decay_at_) {
    // Never decay below what the encoder can actually emit: pacing under the
    // encoder floor doesn't reduce load, it just grows the sender queue (and
    // playback latency with it) until the CC ramps back past the floor.
    if (cc_->target_bitrate_bps() * rc.decay_factor >=
        encoder_.min_output_bps()) {
      cc_->on_feedback_timeout(now, rc.decay_factor);
    }
    next_decay_at_ = now + rc.decay_interval;
  }
  int level = 1;
  if (silence > rc.fps_half_after) level = 2;
  if (silence > rc.resolution_after) level = 3;
  set_ladder(level);
}

void VideoSender::set_ladder(int level) {
  if (level == ladder_level_) return;
  ladder_level_ = level;
  max_ladder_level_ = std::max(max_ladder_level_, level);
  encoder_.set_resolution_scale(
      level >= 3 ? cfg_.resilience.resolution_scale : 1.0);
}

void VideoSender::on_feedback(const rtp::FeedbackReport& report) {
  const auto now = sim_.now();
  if (report.keyframe_request &&
      (last_keyframe_honored_.is_never() ||
       now - last_keyframe_honored_ >= cfg_.resilience.min_keyframe_interval)) {
    if (proactive_ && proactive_->defer_keyframe(now)) {
      // Request acknowledged but held out of the predicted HO window; the
      // frame tick emits it once the window closes.
      proactive_->note_keyframe_deferred();
      keyframe_pending_ = true;
    } else {
      encoder_.force_keyframe();
      ++keyframes_forced_;
    }
    last_keyframe_honored_ = now;
  }
  if (!report.results.empty()) {
    // Only CC feedback feeds the watchdog; a bare keyframe request proves
    // the return path works but carries no rate information.
    last_feedback_at_ = now;
    feedback_expected_ = true;
    if (watchdog_active_) {
      watchdog_active_ = false;
      recovery_flush_until_ = now + cfg_.resilience.recovery_flush_window;
      set_ladder(0);
    }
  }
  cc_->on_feedback(report, now);
  // Feedback may have opened the congestion window.
  if (!queue_.empty()) pump();
}

}  // namespace rpv::pipeline
