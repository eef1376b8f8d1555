// Sender half of the video pipeline (the drone side).
//
// Drives the 30 FPS capture clock, re-encodes the source at the congestion
// controller's target bitrate, packetizes frames into RTP, and transmits
// from a sender-side RTP queue — rate-paced for GCC/static, window-limited
// (self-clocked) for SCReAM. The queue is where the paper's FPS-dip
// mechanism lives: after a sharp target decrease, frames encoded at the old
// (higher) bitrate still drain at the new (lower) pace. An optional discard
// threshold reproduces SCReAM's flush of queues older than 100 ms.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cc/rate_controller.hpp"
#include "metrics/time_series.hpp"
#include "net/packet.hpp"
#include "pipeline/frame_table.hpp"
#include "rtp/fec.hpp"
#include "rtp/packetizer.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "video/encoder_model.hpp"
#include "video/frame_source.hpp"

namespace rpv::predict {
class ProactiveAdapter;
}

namespace rpv::pipeline {

struct SenderConfig {
  sim::Duration frame_interval = sim::Duration::micros(33333);
  // SCReAM flushes its RTP queue when it exceeds this delay; <= zero
  // disables (GCC and static never discard).
  sim::Duration discard_queue = sim::Duration::millis(-1);
  // Re-check interval when the window blocks transmission.
  sim::Duration blocked_poll = sim::Duration::millis(5);
  // XOR FEC: one parity packet per this many media packets; 0 disables.
  int fec_group_size = 0;
  video::EncoderConfig encoder;
  video::FrameSourceConfig source;
  rtp::PacketizerConfig packetizer;

  // Feedback watchdog + graceful-degradation ladder. With RTCP silent past
  // the timeout, coasting on a stale rate estimate floods a link that has
  // just failed; instead the sender flushes its RTP queue once, then decays
  // the CC target multiplicatively, and — as the silence persists — climbs
  // the degradation ladder: bitrate floor, then FPS, then resolution.
  struct ResilienceConfig {
    bool enabled = false;
    sim::Duration feedback_timeout = sim::Duration::millis(500);
    sim::Duration decay_interval = sim::Duration::millis(200);
    double decay_factor = 0.8;
    sim::Duration fps_half_after = sim::Duration::seconds(1.5);
    sim::Duration resolution_after = sim::Duration::seconds(3.0);
    double resolution_scale = 0.5;
    // Honor at most one keyframe request per interval (PLI-storm guard).
    sim::Duration min_keyframe_interval = sim::Duration::millis(250);
    // During a silence episode and for a window after it ends, flush the RTP
    // queue whenever it exceeds this delay: the CC may sit below the
    // encoder's floor while it re-ramps, and stale backlog would otherwise
    // turn into seconds of playback latency.
    sim::Duration recovery_discard = sim::Duration::millis(400);
    sim::Duration recovery_flush_window = sim::Duration::seconds(10.0);
  } resilience;
};

class VideoSender {
 public:
  using TransmitFn = std::function<void(net::Packet)>;

  VideoSender(sim::Simulator& simulator, SenderConfig cfg,
              std::unique_ptr<cc::RateController> controller,
              FrameTable& table, TransmitFn transmit, sim::Rng rng,
              std::shared_ptr<rtp::FecGroupTable> fec_table = nullptr);

  // Capture/encode frames from `start` until `end`.
  void start(sim::TimePoint start, sim::TimePoint end);

  void on_feedback(const rtp::FeedbackReport& report);

  // Optional HO-aware policy layer (rpv::predict). The adapter itself gates
  // every action on its `proactive` flag, so attaching it is always safe.
  void set_proactive_adapter(predict::ProactiveAdapter* adapter) {
    proactive_ = adapter;
  }

  // Publish kFrameEncoded / kPacketSent (and the controller's rate events)
  // onto the session's event bus.
  void attach_observer(obs::EventBus* bus) {
    bus_ = bus;
    cc_->attach_observer(bus);
  }

  // Retune the FEC parity rate mid-stream (bonded sessions drive this from
  // the adaptive controller). No-op when FEC is disabled; takes effect as
  // interleave slots reach the new group size.
  void set_fec_group_size(int n) {
    if (fec_) fec_->set_group_size(n);
  }
  [[nodiscard]] int fec_group_size() const {
    return fec_ ? fec_->group_size() : 0;
  }

  [[nodiscard]] cc::RateController& controller() { return *cc_; }
  [[nodiscard]] const cc::RateController& controller() const { return *cc_; }
  [[nodiscard]] std::uint32_t frames_encoded() const { return frames_encoded_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_discarded() const { return discarded_; }
  [[nodiscard]] std::uint64_t queue_discard_events() const { return discard_events_; }
  [[nodiscard]] double queue_delay_ms() const;
  // The target bitrate of every frame tick, kept as its record highs (the
  // report's ramp-up input).
  [[nodiscard]] const metrics::Highs& target_bitrate_highs() const {
    return target_highs_;
  }

  // Resilience introspection.
  [[nodiscard]] std::uint64_t watchdog_events() const { return watchdog_events_; }
  [[nodiscard]] bool watchdog_active() const { return watchdog_active_; }
  [[nodiscard]] std::uint32_t keyframes_forced() const { return keyframes_forced_; }
  [[nodiscard]] int ladder_level() const { return ladder_level_; }
  [[nodiscard]] int max_ladder_level() const { return max_ladder_level_; }

 private:
  void frame_tick();
  void watchdog_tick(sim::TimePoint now);
  void set_ladder(int level);
  void pump();
  void schedule_pump(sim::Duration in);

  sim::Simulator& sim_;
  SenderConfig cfg_;
  std::unique_ptr<cc::RateController> cc_;
  FrameTable& table_;
  TransmitFn transmit_;
  video::FrameSource source_;
  video::EncoderModel encoder_;
  rtp::Packetizer packetizer_;
  std::vector<net::Packet> packetize_scratch_;  // reused across frame_tick()s
  std::unique_ptr<rtp::FecEncoder> fec_;
  predict::ProactiveAdapter* proactive_ = nullptr;
  obs::EventBus* bus_ = nullptr;
  bool keyframe_pending_ = false;  // deferred out of a predicted HO window

  sim::TimePoint end_time_;
  sim::Fifo<net::Packet> queue_;
  std::size_t queue_bytes_ = 0;
  bool pump_scheduled_ = false;
  sim::TimePoint next_send_allowed_ = sim::TimePoint::origin();

  // Watchdog / degradation-ladder state.
  sim::TimePoint last_feedback_at_ = sim::TimePoint::never();
  bool feedback_expected_ = false;  // armed by the first CC feedback
  bool watchdog_active_ = false;
  sim::TimePoint next_decay_at_ = sim::TimePoint::never();
  sim::TimePoint recovery_flush_until_ = sim::TimePoint::origin();
  std::uint64_t watchdog_events_ = 0;
  int ladder_level_ = 0;
  int max_ladder_level_ = 0;
  std::uint32_t tick_count_ = 0;
  std::uint32_t keyframes_forced_ = 0;
  sim::TimePoint last_keyframe_honored_ = sim::TimePoint::never();

  std::uint16_t fec_transport_seq_ = 0;  // wire-order seqs when FEC is on
  std::uint32_t frames_encoded_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t discard_events_ = 0;
  metrics::Highs target_highs_;
};

}  // namespace rpv::pipeline
