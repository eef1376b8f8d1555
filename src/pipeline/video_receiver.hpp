// Receiver half of the video pipeline (the remote-pilot side on AWS).
//
// Packets arriving from the network enter the RTP jitter buffer (150 ms,
// paper §3.2); released frames are scored by the SSIM model and displayed by
// the player model. In parallel the receiver generates the congestion
// feedback the sender's CC consumes: transport-wide-CC reports for GCC or
// RFC 8888 reports (10 ms clock, bounded ack window) for SCReAM.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fault/backoff.hpp"
#include "metrics/cdf.hpp"
#include "metrics/time_series.hpp"
#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "pipeline/frame_table.hpp"
#include "rtp/fec.hpp"
#include "rtp/feedback.hpp"
#include "rtp/jitter_buffer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "video/player_model.hpp"
#include "video/ssim_model.hpp"

namespace rpv::pipeline {

enum class FeedbackKind { kNone, kTwcc, kRfc8888 };

struct ReceiverConfig {
  rtp::JitterBufferConfig jitter;
  video::PlayerConfig player;
  video::SsimConfig ssim;
  FeedbackKind feedback = FeedbackKind::kTwcc;
  sim::Duration twcc_interval = sim::Duration::millis(50);
  sim::Duration rfc8888_interval = sim::Duration::millis(10);
  int rfc8888_ack_window = 64;  // the paper raises this to 256
  std::size_t feedback_base_bytes = 60;
  std::size_t feedback_per_result_bytes = 2;

  // Model H.264 reference dependency at the decoder: a corrupted or fully
  // lost frame breaks the prediction chain, and every frame decodes damaged
  // until the next clean IDR. Off by default (the seed pipeline scored only
  // per-frame packet loss); chaos benches enable it in BOTH arms so the
  // fault/no-resilience comparison is fair.
  bool model_reference_loss = false;

  // PLI-style keyframe recovery: on a damaged frame, request an IDR from the
  // sender, backing off exponentially (base, 2x, 4x, ... capped at
  // base * pli_max_backoff_factor) until a clean keyframe arrives. The cap
  // bounds the *interval*, not the retry count — a capped interval is what
  // guarantees a request lands shortly after a long outage heals.
  struct ResilienceConfig {
    bool enabled = false;
    sim::Duration pli_backoff_base = sim::Duration::millis(250);
    std::uint32_t pli_max_backoff_factor = 8;
  } resilience;
};

class VideoReceiver {
 public:
  // Sends a feedback report back to the sender over the return path; the
  // report is handed over, not copied.
  using FeedbackFn = std::function<void(rtp::FeedbackReport, std::size_t)>;

  VideoReceiver(sim::Simulator& simulator, ReceiverConfig cfg,
                const FrameTable& table, FeedbackFn send_feedback, sim::Rng rng,
                std::shared_ptr<rtp::FecGroupTable> fec_table = nullptr);

  // Run the feedback clock from `start` until `end`.
  void start(sim::TimePoint start, sim::TimePoint end);

  void on_packet(const net::Packet& p);

  // Call after the simulation drains to finalize windowed stats.
  void finish();

  // Observation taps for rpv::predict: every OWD sample (per media packet)
  // and every 1-second goodput window, as they are recorded.
  using SampleFn = std::function<void(sim::TimePoint, double)>;
  void set_owd_hook(SampleFn fn) { owd_hook_ = std::move(fn); }
  void set_goodput_hook(SampleFn fn) { goodput_hook_ = std::move(fn); }

  // Publish kPacketReceived / kFrameDecoded / kStall onto the session's bus.
  void attach_observer(obs::EventBus* bus);

  [[nodiscard]] video::PlayerModel& player() { return *player_; }
  [[nodiscard]] const video::PlayerModel& player() const { return *player_; }
  [[nodiscard]] const rtp::JitterBuffer& jitter_buffer() const { return *jb_; }
  // One-way latency of every media packet, as a distribution and per second.
  [[nodiscard]] const metrics::Cdf& owd_ms() const { return owd_ms_; }
  [[nodiscard]] const metrics::PerSecond& owd_per_second_ms() const {
    return owd_per_second_ms_;
  }
  [[nodiscard]] const metrics::TimeSeries& goodput_mbps() const {
    return goodput_mbps_;
  }
  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t media_bytes() const { return media_bytes_; }
  [[nodiscard]] std::uint32_t corrupted_frames() const { return corrupted_frames_; }
  [[nodiscard]] std::uint64_t fec_recovered() const {
    return fec_ ? fec_->recovered_packets() : 0;
  }

  // Resilience introspection.
  [[nodiscard]] std::uint64_t pli_sent() const { return pli_sent_; }
  [[nodiscard]] const std::vector<sim::TimePoint>& pli_times() const {
    return pli_times_;
  }
  // Decode times of undamaged frames (recovery attribution input).
  [[nodiscard]] const std::vector<sim::TimePoint>& clean_frame_times() const {
    return clean_frame_times_;
  }

 private:
  void feedback_tick();
  void goodput_tick();
  void on_frame_release(const rtp::FrameReleaseEvent& ev);
  void maybe_request_keyframe();

  sim::Simulator& sim_;
  ReceiverConfig cfg_;
  obs::EventBus* bus_ = nullptr;
  const FrameTable& table_;
  FeedbackFn send_feedback_;
  std::unique_ptr<rtp::JitterBuffer> jb_;
  std::unique_ptr<video::PlayerModel> player_;
  video::SsimModel ssim_;
  rtp::TwccCollector twcc_;
  rtp::Rfc8888Collector rfc8888_;
  std::unique_ptr<rtp::FecDecoder> fec_;

  sim::TimePoint end_time_;
  metrics::Cdf owd_ms_;
  metrics::PerSecond owd_per_second_ms_;
  metrics::TimeSeries goodput_mbps_;
  SampleFn owd_hook_;
  SampleFn goodput_hook_;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t media_bytes_ = 0;
  std::uint32_t corrupted_frames_ = 0;

  // Reference-loss / PLI state.
  fault::Backoff pli_backoff_{sim::Duration::millis(250), 8};
  sim::TimePoint next_pli_allowed_ = sim::TimePoint::origin();
  std::uint32_t last_decoded_id_ = 0;
  bool decoded_any_ = false;
  bool reference_broken_ = false;
  std::vector<sim::TimePoint> clean_frame_times_;
  std::vector<sim::TimePoint> pli_times_;
  std::uint64_t pli_sent_ = 0;
};

}  // namespace rpv::pipeline
