// Discrete-event simulation engine.
//
// A Simulator is a thin virtual clock over sim::EventQueue (the 4-ary heap
// in event_queue.hpp): it clamps past timestamps to now, pops events in
// (timestamp, FIFO seq) order, and advances the clock to each event's time.
// Two scheduling flavours:
//
//   * schedule_at / schedule_in — fire-and-forget; nothing to store.
//   * schedule_timer_at / schedule_timer_in — return a sim::Timer, the RAII
//     cancellation handle (moveable, generation-safe; destruction or
//     re-arming cancels a still-pending event). This replaces the old raw
//     EventId + cancel() API.
//
// Components holding Timers must be destroyed before the Simulator (declare
// the Simulator first in owning classes).
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace rpv::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedule `fn` at absolute virtual time `at`. Times in the past run at
  // the current time (never move the clock backwards).
  void schedule_at(TimePoint at, EventFn fn) {
    (void)schedule_handle(at, std::move(fn));
  }
  // Schedule `fn` after a relative delay.
  void schedule_in(Duration delay, EventFn fn) {
    (void)schedule_handle(now_ + delay, std::move(fn));
  }

  // As above, but return an owning Timer for cancellation / re-arming.
  [[nodiscard]] Timer schedule_timer_at(TimePoint at, EventFn fn) {
    return Timer{&queue_, schedule_handle(at, std::move(fn))};
  }
  [[nodiscard]] Timer schedule_timer_in(Duration delay, EventFn fn) {
    return Timer{&queue_, schedule_handle(now_ + delay, std::move(fn))};
  }

  // Run until the queue drains or the clock passes `until`.
  void run_until(TimePoint until);
  // Run until the queue is empty.
  void run_all();
  // Pop and execute a single event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  EventQueue::Handle schedule_handle(TimePoint at, EventFn&& fn) {
    if (at < now_) at = now_;
    return queue_.schedule(at, std::move(fn));
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace rpv::sim
