// ReorderWindow — receive-side reassembly for bonded multi-path delivery.
//
// Packets sprayed across operator links arrive interleaved and skewed (each
// path has its own radio access latency, queue depth and WAN leg). The
// window holds out-of-order arrivals for a bounded time — sized from a
// per-path one-way-skew estimate, capped at roughly two frame intervals —
// releasing them in transport-sequence order so the jitter buffer and FEC
// decoder downstream see a near-in-order stream. Duplicates (policy-level
// duplication or FEC cross-delivery) are suppressed here, exactly once per
// logical packet.
//
// A transport seq is placed within half the seq space of next_expected_. A
// packet that lands kMaxJump or more seqs ahead of it is a copy trailing the
// stream by more than half the space (its original lost or forgotten): it is
// released at once and counted late, and leaves the window as it was. Only
// when the next packet to pass the duplicate filter is its successor did the
// stream itself jump ahead: the window then releases what it holds and
// follows the stream from there.
//
// The duplicate filter remembers the last 40,001-60,000 accepted packets:
// past 60,000 it forgets the oldest 20,000 at once. It keeps one entry per
// 16-bit transport seq, so it also forgets a packet once a newer one takes
// its seq, 65,536 seqs on; copies trail by seconds, a few thousand seqs.
//
// All state is deterministic: hold timers run on the simulation clock, and
// identical arrival streams release identical output streams.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "rtp/seq_window.hpp"
#include "rtp/sequence.hpp"
#include "sim/simulator.hpp"

namespace rpv::bond {

struct ReorderWindowConfig {
  // Minimum gap-hold; raised toward max_hold as measured path skew grows.
  sim::Duration base_hold = sim::Duration::millis(30);
  // Hard cap: ~2 frame intervals at 30 FPS. A gap older than this is a loss,
  // not reordering, and stalling longer only adds playback latency.
  sim::Duration max_hold = sim::Duration::millis(66);
  // Overflow bound: a flush releases everything once this many packets wait.
  std::size_t max_packets = 256;
  // EWMA smoothing for the per-path latency estimate behind the skew.
  double skew_alpha = 0.1;
};

class ReorderWindow {
 public:
  // Deliver releases one packet downstream; `path` is the operator link the
  // accepted copy arrived on.
  using DeliverFn = std::function<void(net::Packet, int path)>;

  ReorderWindow(sim::Simulator& simulator, ReorderWindowConfig cfg,
                DeliverFn deliver);

  // Publish kReorderFlush onto the session's bond event stream.
  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  // Feed one arriving copy. May release zero or more packets downstream.
  // Every copy is delivered or counted a duplicate: one whose gap was
  // flushed past, or whose seq another packet holds, is released late.
  void on_packet(net::Packet p, int path);

  // End-of-run drain: release everything still held, in order.
  void flush_all();

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t late_packets() const { return late_; }
  // Current |fastest - slowest| one-way estimate across paths, in ms.
  [[nodiscard]] double skew_ms() const;
  [[nodiscard]] std::size_t held() const { return buffer_.size(); }
  // Seq the in-order stream waits for (unwrapped; the first packet's seq
  // before any arrival moves it).
  [[nodiscard]] std::int64_t next_expected() const { return next_expected_; }
  // Slots of the held-packet ring.
  [[nodiscard]] std::size_t ring_slots() const { return buffer_.capacity(); }

  // Seqs ahead of next_expected() at which an arrival stops being placed
  // ahead of the stream (see the header comment).
  static constexpr std::int64_t kMaxJump = 4096;

 private:
  struct Held {
    net::Packet packet;
    int path = 0;
  };
  struct Arrival {
    sim::TimePoint at;
    std::int64_t seq = 0;
  };
  // The key last accepted at a transport seq and its acceptance count then.
  struct Seen {
    std::uint64_t key = 0;
    std::uint64_t stamp = 0;
  };

  [[nodiscard]] sim::Duration hold_window() const;
  [[nodiscard]] static std::uint64_t dedup_key(const net::Packet& p);
  void deliver_front();
  std::uint32_t release_through(std::int64_t last);
  void drain_in_order();
  void flush_expired();
  void arm_timer();
  void publish_flush(std::uint32_t released, std::uint8_t reason,
                     double hold_ms);

  sim::Simulator& sim_;
  ReorderWindowConfig cfg_;
  DeliverFn deliver_;
  obs::EventBus* bus_ = nullptr;

  rtp::SeqWindow<Held> buffer_;  // keyed by unwrapped transport seq
  // Held packets in arrival order, for the oldest arrival's deadline; an
  // entry below next_expected_ was released already.
  std::deque<Arrival> arrivals_;
  bool started_ = false;
  std::int64_t next_expected_ = 0;
  // Successor of the last packet that landed kMaxJump or more ahead, while
  // no packet in range has passed since; -1 otherwise.
  std::int64_t jump_successor_ = -1;

  // Duplicate suppression (see the header comment): a stamp above
  // forgotten_ marks one of the remembered accepted packets.
  std::vector<Seen> seen_ = std::vector<Seen>(std::size_t{1} << 16);
  std::uint64_t accepted_ = 0;
  std::uint64_t forgotten_ = 0;

  // Per-path one-way latency EWMAs feeding the skew estimate.
  std::vector<double> path_latency_ms_;
  std::vector<bool> path_seen_;

  sim::TimePoint timer_deadline_ = sim::TimePoint::never();
  sim::Timer timer_;

  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t late_ = 0;
};

}  // namespace rpv::bond
