// EventSink + EventBus — the subscription side of rpv::obs.
//
// The bus keeps an aggregated interest mask (OR of every subscriber's
// interest_mask()), so when nothing wants a kind, publish() is one load,
// one test, and a branch — publishers additionally guard payload
// construction with bus->wants(kind) to keep the disabled path near-free.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace rpv::obs {

class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void on_event(const Event& e) = 0;

  // Bitmask of EventKind bits this sink wants (kind_bit OR'ed together).
  // Sampled once at subscribe time; default is everything.
  [[nodiscard]] virtual std::uint64_t interest_mask() const { return kAllKinds; }
};

// Explicit "observe nothing" sink: subscribing it adds no interest bits, so
// the bus stays on the single-branch fast path.
class NullSink final : public EventSink {
 public:
  void on_event(const Event&) override {}
  [[nodiscard]] std::uint64_t interest_mask() const override { return 0; }
};

// Adapter sink wrapping a callback; used e.g. by Session to relay
// link-measurement events into rpv::predict without a bespoke class.
class FunctionSink final : public EventSink {
 public:
  FunctionSink(std::uint64_t mask, std::function<void(const Event&)> fn)
      : mask_(mask), fn_(std::move(fn)) {}

  void on_event(const Event& e) override { fn_(e); }
  [[nodiscard]] std::uint64_t interest_mask() const override { return mask_; }

 private:
  std::uint64_t mask_;
  std::function<void(const Event&)> fn_;
};

// One bus per stream. Single-threaded (the simulation is a DES); sequence
// numbers are assigned in publish order, which the deterministic event loop
// makes reproducible for any --jobs value.
class EventBus {
 public:
  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // Stamp sequence numbers from `primary`'s counter: every bus of one
  // session then shares a single publish-ordered sequence.
  void share_sequence(EventBus& primary) { seq_ = primary.seq_; }

  // Sinks are borrowed, not owned; they must outlive the bus's publishers.
  // The sink's interest mask is sampled here, once: wants() already assumes
  // masks are fixed after subscription, and caching it makes the per-event
  // fan-out loop branch on a local array instead of a virtual call.
  void subscribe(EventSink* sink) {
    sinks_.push_back(sink);
    sink_masks_.push_back(sink->interest_mask());
    mask_ |= sink_masks_.back();
  }

  // True when at least one subscriber wants this kind. Publishers use this
  // to skip payload construction entirely on the disabled path.
  [[nodiscard]] bool wants(EventKind k) const {
    return (mask_ & kind_bit(k)) != 0;
  }

  void publish(Component c, EventKind k, sim::TimePoint t, Payload payload = {}) {
    const std::uint64_t bit = kind_bit(k);
    if ((mask_ & bit) == 0) return;
    Event e{t, (*seq_)++, c, k, std::move(payload)};
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (sink_masks_[i] & bit) sinks_[i]->on_event(e);
    }
  }

  [[nodiscard]] std::uint64_t published() const { return *seq_; }

 private:
  std::vector<EventSink*> sinks_;
  std::vector<std::uint64_t> sink_masks_;
  std::uint64_t mask_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t* seq_ = &next_seq_;
};

}  // namespace rpv::obs
