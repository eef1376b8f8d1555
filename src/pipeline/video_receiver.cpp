#include "pipeline/video_receiver.hpp"

#include "net/packet_events.hpp"

namespace rpv::pipeline {

VideoReceiver::VideoReceiver(sim::Simulator& simulator, ReceiverConfig cfg,
                             const FrameTable& table, FeedbackFn send_feedback,
                             sim::Rng rng,
                             std::shared_ptr<rtp::FecGroupTable> fec_table)
    : sim_{simulator},
      cfg_{cfg},
      table_{table},
      send_feedback_{std::move(send_feedback)},
      ssim_{cfg.ssim, rng.fork()},
      rfc8888_{cfg.rfc8888_ack_window},
      pli_backoff_{cfg.resilience.pli_backoff_base,
                   cfg.resilience.pli_max_backoff_factor} {
  if (fec_table) fec_ = std::make_unique<rtp::FecDecoder>(std::move(fec_table));
  jb_ = std::make_unique<rtp::JitterBuffer>(
      sim_, cfg_.jitter,
      [this](const rtp::FrameReleaseEvent& ev) { on_frame_release(ev); });
  player_ = std::make_unique<video::PlayerModel>(sim_, cfg_.player);
}

void VideoReceiver::start(sim::TimePoint start, sim::TimePoint end) {
  end_time_ = end;
  if (cfg_.feedback != FeedbackKind::kNone) {
    sim_.schedule_at(start, [this] { feedback_tick(); });
  }
  sim_.schedule_at(start + sim::Duration::seconds(1.0), [this] { goodput_tick(); });
}

void VideoReceiver::attach_observer(obs::EventBus* bus) {
  bus_ = bus;
  player_->set_stall_hook([this](sim::TimePoint t, double gap_ms) {
    if (bus_->wants(obs::EventKind::kStall)) {
      bus_->publish(obs::Component::kReceiver, obs::EventKind::kStall, t,
                    obs::StallPayload{gap_ms});
    }
  });
}

void VideoReceiver::on_packet(const net::Packet& p) {
  ++packets_received_;
  if (bus_ && bus_->wants(obs::EventKind::kPacketReceived)) {
    bus_->publish(obs::Component::kReceiver, obs::EventKind::kPacketReceived,
                  sim_.now(), net::packet_payload(p, (p.received - p.enqueued).ms()));
  }

  if (p.kind == net::PacketKind::kFecParity) {
    // Parity is protection overhead: it feeds congestion feedback and the
    // FEC decoder, but carries no media payload for goodput accounting.
    switch (cfg_.feedback) {
      case FeedbackKind::kTwcc:
        twcc_.on_packet(p.transport_seq, p.received);
        break;
      case FeedbackKind::kRfc8888:
        rfc8888_.on_packet(p.transport_seq, p.received);
        break;
      case FeedbackKind::kNone:
        break;
    }
    if (fec_) {
      if (auto rebuilt = fec_->on_parity_packet(p, sim_.now())) {
        jb_->on_packet(*rebuilt);
      }
    }
    return;
  }

  const std::size_t payload =
      p.size_bytes > 40 ? p.size_bytes - 40 : p.size_bytes;  // strip headers
  media_bytes_ += payload;
  window_bytes_ += payload;
  const double owd = (p.received - p.enqueued).ms();
  owd_ms_.add(owd);
  owd_per_second_ms_.add(sim_.now(), owd);
  if (owd_hook_) owd_hook_(sim_.now(), owd);

  if (fec_) {
    if (auto rebuilt = fec_->on_media_packet(p, sim_.now())) {
      jb_->on_packet(*rebuilt);
    }
  }

  switch (cfg_.feedback) {
    case FeedbackKind::kTwcc:
      twcc_.on_packet(p.transport_seq, p.received);
      break;
    case FeedbackKind::kRfc8888:
      rfc8888_.on_packet(p.transport_seq, p.received);
      break;
    case FeedbackKind::kNone:
      break;
  }
  jb_->on_packet(p);
}

void VideoReceiver::feedback_tick() {
  const auto now = sim_.now();
  if (now > end_time_) return;

  rtp::FeedbackReport report;
  bool have = false;
  if (cfg_.feedback == FeedbackKind::kTwcc && twcc_.has_data()) {
    report = twcc_.build_report(now);
    have = true;
  } else if (cfg_.feedback == FeedbackKind::kRfc8888 && rfc8888_.has_data()) {
    report = rfc8888_.build_report(now);
    have = true;
  }
  if (have && !report.results.empty()) {
    const std::size_t size = cfg_.feedback_base_bytes +
                             cfg_.feedback_per_result_bytes * report.results.size();
    send_feedback_(std::move(report), size);
  }

  const auto interval = cfg_.feedback == FeedbackKind::kTwcc
                            ? cfg_.twcc_interval
                            : cfg_.rfc8888_interval;
  sim_.schedule_in(interval, [this] { feedback_tick(); });
}

void VideoReceiver::goodput_tick() {
  const auto now = sim_.now();
  goodput_mbps_.add(now, static_cast<double>(window_bytes_) * 8.0 / 1e6);
  if (goodput_hook_) {
    goodput_hook_(now, static_cast<double>(window_bytes_) * 8.0 / 1e6);
  }
  window_bytes_ = 0;
  if (now <= end_time_) {
    sim_.schedule_in(sim::Duration::seconds(1.0), [this] { goodput_tick(); });
  }
}

void VideoReceiver::on_frame_release(const rtp::FrameReleaseEvent& ev) {
  const auto meta = table_.get(ev.frame_id);
  if (!meta) return;

  bool damaged = ev.corrupted;
  if (cfg_.model_reference_loss) {
    // A gap in the frame-id sequence means a whole frame vanished: the
    // prediction chain is broken until the next clean keyframe arrives.
    if (decoded_any_ && ev.frame_id > last_decoded_id_ + 1) {
      reference_broken_ = true;
    }
    // A clean IDR repairs the chain *before* this frame is judged.
    if (meta->keyframe && !ev.corrupted) reference_broken_ = false;
    damaged = ev.corrupted || reference_broken_;
    if (ev.corrupted) reference_broken_ = true;
  }
  decoded_any_ = true;
  last_decoded_id_ = ev.frame_id;

  if (damaged) {
    ++corrupted_frames_;
  } else {
    clean_frame_times_.push_back(sim_.now());
  }

  if (bus_ && bus_->wants(obs::EventKind::kFrameDecoded)) {
    bus_->publish(obs::Component::kReceiver, obs::EventKind::kFrameDecoded,
                  sim_.now(),
                  obs::FramePayload{meta->id,
                                    static_cast<std::uint32_t>(meta->size_bytes),
                                    meta->keyframe, damaged});
  }

  if (cfg_.resilience.enabled) {
    if (damaged) {
      maybe_request_keyframe();
    } else if (meta->keyframe) {
      pli_backoff_.reset();
      next_pli_allowed_ = sim_.now();
    }
  }

  const double ssim = ssim_.score_frame(*meta, damaged);
  player_->on_frame_ready(*meta, ssim);
}

void VideoReceiver::maybe_request_keyframe() {
  const auto now = sim_.now();
  if (now < next_pli_allowed_) return;
  // A PLI rides on an otherwise-empty feedback report so keyframe recovery
  // works even for the static baseline (FeedbackKind::kNone runs no CC
  // feedback clock; this message is generated on demand instead).
  rtp::FeedbackReport report;
  report.generated = now;
  report.keyframe_request = true;
  send_feedback_(std::move(report), cfg_.feedback_base_bytes);
  ++pli_sent_;
  pli_times_.push_back(now);
  next_pli_allowed_ = now + pli_backoff_.next();
}

void VideoReceiver::finish() { player_->finish(); }

}  // namespace rpv::pipeline
