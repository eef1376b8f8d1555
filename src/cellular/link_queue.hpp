// Deep-buffered uplink queue ("bufferbloat").
//
// Cellular operators deploy very large per-UE buffers; the paper (citing
// Jiang et al.) attributes the near-zero packet error rate and the large
// latency spikes to them: when the radio slows down (cell edge, handover),
// packets queue for hundreds of milliseconds instead of being dropped.
// This is a FIFO byte queue drained at a time-varying service rate, with
// pause/resume hooks for handover interruptions and overflow-only drops.
//
// Each packet rides with an optional per-packet completion callback that is
// handed to the deliver function when serialization finishes (and silently
// discarded on drop) — the owner never needs a side table keyed by packet
// id. In-flight packets live in a sim::Fifo, which allocates only while the
// backlog outgrows two chunks of packets.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rpv::cellular {

struct LinkQueueConfig {
  std::size_t buffer_bytes = 6 * 1024 * 1024;  // ~6 MB: seconds at video rates
  // CoDel-style active queue management (paper Section 5 discusses smart
  // queue management as a bufferbloat mitigation). When enabled, packets
  // whose sojourn time persistently exceeds `aqm_target` are dropped at
  // dequeue, signalling the sender's CC before the deep buffer fills.
  bool aqm_enabled = false;
  sim::Duration aqm_target = sim::Duration::millis(20);
  sim::Duration aqm_interval = sim::Duration::millis(100);
};

class LinkQueue {
 public:
  // Per-packet completion, carried through the queue alongside its packet.
  using DoneFn = std::function<void(net::Packet)>;
  // Called when a packet finishes serialization, with its completion (which
  // may be null).
  using DeliverFn = std::function<void(net::Packet, DoneFn)>;
  using RateFn = std::function<double()>;  // current service rate, bits/s
  using DropFn = std::function<void(const net::Packet&)>;

  LinkQueue(sim::Simulator& simulator, LinkQueueConfig cfg, RateFn rate,
            DeliverFn deliver, DropFn on_drop = nullptr);

  // Enqueue for transmission; drops on buffer overflow (the completion is
  // discarded with the packet — on_drop sees the packet itself).
  void enqueue(net::Packet p, DoneFn done = nullptr);

  // Publish kQueueEnqueue / kQueueDrop onto the session's event bus.
  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  // Handover control: while paused nothing is serialized.
  void pause();
  void resume();

  [[nodiscard]] std::size_t queued_bytes() const { return queued_bytes_; }
  [[nodiscard]] double fill_fraction() const {
    return static_cast<double>(queued_bytes_) /
           static_cast<double>(cfg_.buffer_bytes);
  }
  [[nodiscard]] std::size_t queued_packets() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t aqm_drops() const { return aqm_drops_; }
  // Queue sojourn estimate at the current service rate, in seconds.
  [[nodiscard]] double queuing_delay_sec() const;

 private:
  struct Item {
    net::Packet p;
    DoneFn done;
  };

  void maybe_start_service();
  void finish_head();
  bool aqm_should_drop(const net::Packet& p);

  sim::Simulator& sim_;
  LinkQueueConfig cfg_;
  RateFn rate_;
  DeliverFn deliver_;
  DropFn on_drop_;
  obs::EventBus* bus_ = nullptr;
  sim::Fifo<Item> queue_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t aqm_drops_ = 0;
  bool busy_ = false;
  bool paused_ = false;
  int pause_depth_ = 0;
  sim::Timer service_timer_;

  // CoDel state.
  sim::TimePoint first_above_ = sim::TimePoint::never();
  sim::TimePoint next_aqm_drop_ = sim::TimePoint::never();
  int aqm_drop_count_ = 0;
};

}  // namespace rpv::cellular
