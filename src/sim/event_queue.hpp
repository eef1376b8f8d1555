// Event queue for the discrete-event core.
//
// EventQueue is a standalone priority queue of timed callables with these
// documented semantics:
//
//   * pop() always yields the pending event with the smallest timestamp;
//     events with equal timestamps pop in schedule (FIFO) order. The total
//     order is (timestamp, schedule sequence number) — deterministic and
//     independent of the internal container layout.
//   * schedule() is O(log n) and performs no per-event heap allocation:
//     callables up to EventFn::kInlineBytes are stored inline in a pooled
//     slot (sim::Pool), larger ones fall back to one heap box.
//   * cancel() is O(1) amortized: it releases the slot immediately
//     (generation-checked Handle, so stale handles are harmless no-ops) and
//     leaves a tombstone in the heap that pop() drops when it reaches the top.
//
// Internally the pending entries are one flat 4-ary min-heap of 24-byte
// {timestamp, seq, slot, generation} records. A session keeps only a few
// dozen events pending, so the whole heap spans a few cache lines — which is
// what matters when a fleet swaps dozens of sessions through one core. An
// entry whose generation no longer matches its slot is a tombstone; cancel()
// rebuilds the heap from its live entries once tombstones outnumber them, so
// re-armed timers cannot grow it without bound.
//
// Timer is the RAII scheduling handle used by Simulator's public API: it
// cancels its event on destruction (unless fired, released, or re-armed)
// and is generation-safe — a Timer held across its event's firing and even
// across slot reuse can never cancel somebody else's event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/pool.hpp"
#include "sim/time.hpp"

namespace rpv::sim {

// Move-only type-erased `void()` callable with a large inline buffer.
// Unlike std::function, captures up to kInlineBytes bytes never touch the
// heap — sized so every hot-path lambda in the simulator (the largest is the
// cellular uplink delivery capture) stays inline.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 152;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  EventFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  void move_from(EventFn& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  // Generation-checked reference to a scheduled event. Value type; copies
  // are fine (all become stale together once the event fires or cancels).
  struct Handle {
    std::uint32_t slot = kInvalidSlot;
    std::uint32_t gen = 0;
  };

  // One heap record: live while `gen` matches its slot's generation.
  struct Entry {
    std::int64_t at_us;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedule `fn` at absolute time `at` (the caller owns any clamping
  // policy). Returns a handle valid until the event fires or is cancelled.
  // Takes an rvalue so the callable relocates exactly once, into its slot.
  Handle schedule(TimePoint at, EventFn&& fn) {
    const std::uint32_t slot = pool_.acquire(std::move(fn));
    if (slot >= gens_.size()) gens_.resize(slot + 1, 0);
    const Entry e{at.us(), seq_++, slot, gens_[slot]};
    if (root_taken_) {
      // The event just taken still holds the root: overwrite it, so a
      // handler that re-arms itself costs one sift instead of pop + push.
      root_taken_ = false;
      sift_down(0, e);
    } else {
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    }
    ++live_;
    return Handle{slot, gens_[slot]};
  }

  // Cancel a pending event. Returns whether it was still pending; stale
  // handles (fired, already cancelled, default-constructed) are no-ops.
  bool cancel(Handle h) {
    if (!pending(h)) return false;
    // Release the slot now; the heap entry stays behind as a tombstone (its
    // gen no longer matches) until it reaches the top or a rebuild.
    pool_.release(h.slot);
    ++gens_[h.slot];
    --live_;
    if (heap_.size() - live_ > live_) compact();
    return true;
  }

  // Whether `h` still refers to a pending event.
  [[nodiscard]] bool pending(Handle h) const {
    return h.slot < gens_.size() && gens_[h.slot] == h.gen;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // The physical heap, tombstones included (for tests and diagnostics).
  [[nodiscard]] const std::vector<Entry>& entries() const { return heap_; }

  // Timestamp of the earliest pending event, or TimePoint::never() if empty.
  // Non-const: drops tombstones off the top of the heap.
  [[nodiscard]] TimePoint next_time() {
    return live_top() ? TimePoint::from_us(heap_[0].at_us) : TimePoint::never();
  }

  // Pop the earliest pending event ((timestamp, FIFO seq) order) into
  // *at / *fn. Returns false when the queue is empty.
  bool pop(TimePoint* at, EventFn* fn) {
    return pop_until(TimePoint::from_us(std::numeric_limits<std::int64_t>::max()),
                     at, fn);
  }

  // As pop(), but leaves the queue untouched (and returns false) when the
  // earliest pending event is after `limit`.
  bool pop_until(TimePoint limit, TimePoint* at, EventFn* fn) {
    std::uint32_t slot;
    if (!take(limit.us(), &slot, at)) return false;
    *fn = std::move(pool_[slot]);
    pool_.release(slot);
    return true;
  }

  // Pop the earliest pending event due by `limit` and execute it in place
  // from its pool slot — no relocation of the callable. *clock is set to the
  // event's timestamp *before* the handler runs (pass the virtual clock).
  // The event's slot is retired (generation bumped) before invocation, so
  // Handles/Timers to it are already stale while it fires; the slot itself
  // is recycled only after the handler returns, so re-entrant schedule()
  // calls from inside the handler cannot clobber the running callable.
  bool run_one(TimePoint limit, TimePoint* clock) {
    std::uint32_t slot;
    if (!take(limit.us(), &slot, clock)) return false;
    pool_[slot]();
    pool_.release(slot);
    return true;
  }

 private:
  static constexpr std::size_t kArity = 4;

  // (at_us, seq) compared as one 128-bit key: a branch-free compare, which
  // keeps the unpredictable child pick in sift_down() off the branch
  // predictor (GCC/Clang __int128).
  static bool before(const Entry& a, const Entry& b) {
    using Key = __int128;
    return ((Key{a.at_us} << 64) | a.seq) < ((Key{b.at_us} << 64) | b.seq);
  }

  // Drop tombstones off the top; false when no entry is left.
  bool live_top() {
    while (!heap_.empty()) {
      if (gens_[heap_[0].slot] == heap_[0].gen) return true;
      pop_top();
    }
    return false;
  }

  // Retire the earliest pending event if it is due by `limit_us`: bump its
  // slot's generation but do NOT recycle the slot — the caller moves the
  // callable out or runs it in place, then releases. The retired entry stays
  // at the root as a tombstone: the next schedule() overwrites it, or the
  // next take() drops it.
  bool take(std::int64_t limit_us, std::uint32_t* slot, TimePoint* at) {
    if (!live_top() || heap_[0].at_us > limit_us) return false;
    *slot = heap_[0].slot;
    *at = TimePoint::from_us(heap_[0].at_us);
    ++gens_[*slot];
    --live_;
    root_taken_ = true;
    return true;
  }

  void pop_top() {
    root_taken_ = false;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Fill the hole at `i` with `e`, moving smaller children up past it.
  void sift_down(std::size_t i, Entry e) {
    Entry* h = heap_.data();
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t c = kArity * i + 1;
      if (c + kArity <= n) {  // four children: a two-round tournament
        const std::size_t a = c + before(h[c + 1], h[c]);
        const std::size_t b = c + 2 + before(h[c + 3], h[c + 2]);
        c = before(h[b], h[a]) ? b : a;
      } else if (c < n) {
        for (std::size_t k = c + 1; k < n; ++k) {
          if (before(h[k], h[c])) c = k;
        }
      } else {
        break;
      }
      if (!before(h[c], e)) break;
      h[i] = h[c];
      i = c;
    }
    h[i] = e;
  }

  // Rebuild the heap from its live entries (outlined cold path of cancel).
  void compact();

  Pool<EventFn> pool_;              // slot storage; index == Handle::slot
  std::vector<std::uint32_t> gens_;  // parallel to pool slots; bump on free
  std::vector<Entry> heap_;          // 4-ary min-heap on (at_us, seq)
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  bool root_taken_ = false;  // heap_[0] is the tombstone of the last take()
};

// RAII handle to a scheduled event, returned by Simulator::schedule_timer_*.
// Movable, not copyable; destruction or re-assignment cancels the event if
// it is still pending. Generation-checked: once the event has fired (or been
// cancelled), the Timer is inert even if its slot was reused. A Timer must
// not outlive the queue that issued it.
class Timer {
 public:
  Timer() = default;
  Timer(EventQueue* queue, EventQueue::Handle handle)
      : queue_(queue), handle_(handle) {}

  Timer(Timer&& o) noexcept : queue_(o.queue_), handle_(o.handle_) {
    o.queue_ = nullptr;
    o.handle_ = {};
  }
  Timer& operator=(Timer&& o) noexcept {
    if (this != &o) {
      cancel();
      queue_ = o.queue_;
      handle_ = o.handle_;
      o.queue_ = nullptr;
      o.handle_ = {};
    }
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  // Cancel the event if still pending; returns whether it was.
  bool cancel() {
    if (queue_ == nullptr) return false;
    const bool was = queue_->cancel(handle_);
    queue_ = nullptr;
    handle_ = {};
    return was;
  }

  // Detach without cancelling (the event fires on schedule).
  void release() {
    queue_ = nullptr;
    handle_ = {};
  }

  // Whether the event is still pending (false once fired/cancelled/moved).
  [[nodiscard]] bool pending() const {
    return queue_ != nullptr && queue_->pending(handle_);
  }

 private:
  EventQueue* queue_ = nullptr;
  EventQueue::Handle handle_{};
};

}  // namespace rpv::sim
