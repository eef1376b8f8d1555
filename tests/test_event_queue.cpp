// Unit tests for the event queue (sim/event_queue.hpp) and its supporting
// pieces: sim::Pool, sim::Fifo, EventFn, Timer. The stress tests replay the
// same schedule/cancel trace through a reference binary heap and require the
// 4-ary heap to produce the identical (timestamp, FIFO seq) pop order. The
// wheel/overflow boundary cases were written for the calendar queue the heap
// replaced; they stay as regression inputs.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/pool.hpp"
#include "sim/time.hpp"

namespace rpv::sim {
namespace {

// --- Pool ---

TEST(Pool, AcquireReleaseReusesLifo) {
  Pool<int> pool;
  const auto a = pool.acquire(1);
  const auto b = pool.acquire(2);
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.live(), 0u);
  // LIFO: the most recently released slot is handed out first.
  EXPECT_EQ(pool.acquire(3), b);
  EXPECT_EQ(pool.acquire(4), a);
  EXPECT_EQ(pool[a], 4);
  EXPECT_EQ(pool[b], 3);
}

TEST(Pool, AddressesStableAcrossGrowth) {
  Pool<std::uint64_t> pool;
  const auto first = pool.acquire(std::uint64_t{42});
  std::uint64_t* p = &pool[first];
  for (int i = 0; i < 2000; ++i) pool.acquire(static_cast<std::uint64_t>(i));
  EXPECT_EQ(&pool[first], p);  // chunked storage: no reallocation
  EXPECT_EQ(pool[first], 42u);
  EXPECT_EQ(pool.live(), 2001u);
}

TEST(Pool, DestructorsRunOnReleaseAndClear) {
  static int live_objects = 0;
  struct Counted {
    Counted() { ++live_objects; }
    ~Counted() { --live_objects; }
  };
  Pool<Counted> pool;
  const auto a = pool.acquire();
  pool.acquire();
  EXPECT_EQ(live_objects, 2);
  pool.release(a);
  EXPECT_EQ(live_objects, 1);
  pool.clear();
  EXPECT_EQ(live_objects, 0);
}

TEST(Pool, HoldsMoveOnlyTypes) {
  Pool<std::unique_ptr<int>> pool;
  const auto idx = pool.acquire(std::make_unique<int>(7));
  EXPECT_EQ(*pool[idx], 7);
  auto out = std::move(pool[idx]);
  pool.release(idx);
  EXPECT_EQ(*out, 7);
}

// --- Fifo ---

TEST(Fifo, PopsInPushOrderAcrossGrowthAndClear) {
  Fifo<std::unique_ptr<int>> q;
  int pushed = 0;
  int popped = 0;
  // Interleave pushes and pops so emptied chunks come back as spares, and
  // grow the backlog across several chunks.
  for (int round = 0; round < 300; ++round) {
    q.push_back(std::make_unique<int>(pushed++));
    q.push_back(std::make_unique<int>(pushed++));
    EXPECT_EQ(*q.front(), popped++);
    q.pop_front();
  }
  EXPECT_EQ(q.size(), 300u);
  while (!q.empty()) {
    EXPECT_EQ(*q.front(), popped++);
    q.pop_front();
  }
  EXPECT_EQ(popped, pushed);

  q.push_back(std::make_unique<int>(1));
  q.push_back(std::make_unique<int>(2));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(*q.push_back(std::make_unique<int>(3)), 3);
  q.push_back(std::make_unique<int>(4));
  EXPECT_EQ(*q.front(), 3);
  q.pop_front();
  EXPECT_EQ(*q.front(), 4);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Fifo, DestroysElementsOnPopClearAndDestruction) {
  static int live_objects = 0;
  struct Counted {
    Counted() { ++live_objects; }
    Counted(Counted&&) noexcept { ++live_objects; }
    ~Counted() { --live_objects; }
  };
  const int n = 3 * static_cast<int>(Fifo<Counted>::kChunk);
  {
    Fifo<Counted> q;
    for (int i = 0; i < n; ++i) q.push_back(Counted{});
    EXPECT_EQ(live_objects, n);
    q.pop_front();
    EXPECT_EQ(live_objects, n - 1);
    q.clear();
    EXPECT_EQ(live_objects, 0);
    for (int i = 0; i < n; ++i) q.push_back(Counted{});
    EXPECT_EQ(live_objects, n);
  }
  EXPECT_EQ(live_objects, 0);
}

// --- EventFn ---

TEST(EventFn, InvokesSmallCapture) {
  int hits = 0;
  EventFn f{[&hits] { ++hits; }};
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, MoveTransfersOwnership) {
  int hits = 0;
  EventFn a{[&hits] { ++hits; }};
  EventFn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, LargeCaptureFallsBackToHeapAndStillRuns) {
  struct Big {
    char payload[4 * EventFn::kInlineBytes] = {};
    int* out;
  };
  int result = 0;
  Big big;
  big.out = &result;
  big.payload[0] = 9;
  EventFn f{[big] { *big.out = big.payload[0]; }};
  f();
  EXPECT_EQ(result, 9);
}

TEST(EventFn, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    EventFn f{[token] { (void)token; }};
    token.reset();
    EXPECT_FALSE(watch.expired());  // alive inside the callable
    EventFn g{std::move(f)};
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// --- EventQueue: basic ordering ---

TEST(EventQueue, PopsInTimestampOrder) {
  EventQueue q;
  std::vector<std::int64_t> order;
  for (const std::int64_t t : {900, 100, 500, 300, 700}) {
    q.schedule(TimePoint::from_us(t), [&order, t] { order.push_back(t); });
  }
  TimePoint at;
  EventFn fn;
  while (q.pop(&at, &fn)) fn();
  EXPECT_EQ(order, (std::vector<std::int64_t>{100, 300, 500, 700, 900}));
}

TEST(EventQueue, FifoOnEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(TimePoint::from_us(1000), [&order, i] { order.push_back(i); });
  }
  TimePoint at;
  EventFn fn;
  while (q.pop(&at, &fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, NextTimeTracksEarliestPending) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_never());
  q.schedule(TimePoint::from_us(500), [] {});
  const auto h = q.schedule(TimePoint::from_us(100), [] {});
  EXPECT_EQ(q.next_time().us(), 100);
  q.cancel(h);
  EXPECT_EQ(q.next_time().us(), 500);
}

// --- EventQueue: wheel/overflow boundary crossings ---

TEST(EventQueue, EventsBeyondWheelWindowOverflowAndReturn) {
  // The wheel covers ~262 ms; schedule both sides of the boundary and far
  // beyond, then verify global ordering survives the migrations.
  EventQueue q;
  std::vector<std::int64_t> order;
  const std::vector<std::int64_t> times_us = {
      100,        262'000,    262'144,     263'000,   500'000,
      1'000'000,  5'000'000,  50'000'000,  262'143,   262'145,
      524'288,    786'432,    10'000'000,  2'000'000, 300'000};
  for (const auto t : times_us) {
    q.schedule(TimePoint::from_us(t), [&order, t] { order.push_back(t); });
  }
  std::vector<std::int64_t> expected = times_us;
  std::sort(expected.begin(), expected.end());
  TimePoint at;
  EventFn fn;
  std::int64_t last = -1;
  while (q.pop(&at, &fn)) {
    EXPECT_GE(at.us(), last);
    last = at.us();
    fn();
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, RebaseAcrossIdleGapThenScheduleEarlier) {
  // Pop a far-future event (forcing the window to rebase onto it), then
  // schedule before the new window base; the "front" staging heap must keep
  // the ordering exact.
  EventQueue q;
  std::vector<std::int64_t> order;
  q.schedule(TimePoint::from_us(100), [&order] { order.push_back(100); });
  q.schedule(TimePoint::from_us(10'000'000),
             [&order] { order.push_back(10'000'000); });
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(&at, &fn));
  fn();  // 100 us; window now rebases toward the 10 s event on next access
  EXPECT_EQ(q.next_time().us(), 10'000'000);
  // An earlier (but still future) schedule must pop before the 10 s event.
  q.schedule(TimePoint::from_us(9'000'000),
             [&order] { order.push_back(9'000'000); });
  q.schedule(TimePoint::from_us(9'000'000 + 50),
             [&order] { order.push_back(9'000'050); });
  while (q.pop(&at, &fn)) fn();
  EXPECT_EQ(order,
            (std::vector<std::int64_t>{100, 9'000'000, 9'000'050, 10'000'000}));
}

TEST(EventQueue, InterleavedPopAndScheduleAcrossWindows) {
  // Ladder pattern: each event schedules another one window ahead.
  EventQueue q;
  int fired = 0;
  std::int64_t last_us = -1;
  std::function<void(std::int64_t)> ladder = [&](std::int64_t t) {
    ++fired;
    EXPECT_GT(t, last_us);
    last_us = t;
    if (fired < 50) {
      const std::int64_t next = t + 300'000;  // > one wheel window away
      q.schedule(TimePoint::from_us(next), [&ladder, next] { ladder(next); });
    }
  };
  q.schedule(TimePoint::from_us(10), [&ladder] { ladder(10); });
  TimePoint at;
  EventFn fn;
  while (q.pop(&at, &fn)) fn();
  EXPECT_EQ(fired, 50);
}

TEST(EventQueue, OverflowDrainAcrossHorizonsSkipsTombstoneHeads) {
  // Regression for the rebase path at wheel drain: when the window rebases
  // onto the overflow heap, cancelled entries at the heap's head must be
  // discarded *before* the new base granule is chosen. Build five full wheel
  // windows beyond the first where a run of tombstones heads the overflow
  // heap at every rebase — and one window that is cancelled wholesale, so a
  // single rebase has to skip an entire dead horizon — then drain with
  // pop_until() limits pinned exactly to the horizon boundaries.
  constexpr std::int64_t kWindowUs = 1024 * 256;  // buckets x granule
  EventQueue q;
  std::vector<std::int64_t> order;
  std::vector<std::int64_t> expected;
  std::vector<EventQueue::Handle> doomed;

  const auto live = [&](std::int64_t t) {
    q.schedule(TimePoint::from_us(t), [&order, t] { order.push_back(t); });
    expected.push_back(t);
  };
  const auto dead = [&](std::int64_t t) {
    doomed.push_back(q.schedule(TimePoint::from_us(t), [] {
      ADD_FAILURE() << "cancelled event fired";
    }));
  };

  // Window 0 lives in the wheel; windows 1..5 go through the overflow heap.
  live(100);
  live(kWindowUs - 1);
  for (int w = 1; w <= 5; ++w) {
    const std::int64_t base = w * kWindowUs;
    dead(base);  // scheduled before live(base): same timestamp, lower seq
    dead(base + 7);
    dead(base + 300);
    if (w == 3) {
      // Entire horizon cancelled: the rebase out of window 2 must pop five
      // consecutive tombstones and anchor directly on window 4.
      dead(base + 50'000);
      dead(base + 200'000);
    } else {
      live(base);  // live event dead-on the horizon boundary
      live(base + 50'000);
      live(base + 200'000);
    }
  }
  for (const auto h : doomed) EXPECT_TRUE(q.cancel(h));
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(q.size(), expected.size());

  // pop_until()'s limit is inclusive: the live event sitting exactly on each
  // boundary pops in that round even though a cancelled tombstone with the
  // same timestamp (and lower seq) heads the overflow heap.
  TimePoint at;
  EventFn fn;
  std::size_t idx = 0;
  for (int w = 1; w <= 6; ++w) {
    const auto limit = TimePoint::from_us(w * kWindowUs);
    while (q.pop_until(limit, &at, &fn)) {
      EXPECT_LE(at.us(), limit.us());
      fn();
    }
    while (idx < expected.size() && expected[idx] <= limit.us()) ++idx;
    ASSERT_EQ(order.size(), idx) << "wrong pop count at horizon " << w;
    // Peeking across the boundary forces the rebase (tombstone heads and,
    // after window 2, the fully dead horizon) before the next round pops.
    if (idx < expected.size()) {
      EXPECT_EQ(q.next_time().us(), expected[idx]);
    } else {
      EXPECT_TRUE(q.next_time().is_never());
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, expected);
}

// --- EventQueue: cancellation and handle safety ---

TEST(EventQueue, CancelMakesPopSkipTombstone) {
  EventQueue q;
  bool ran = false;
  const auto h = q.schedule(TimePoint::from_us(10), [&ran] { ran = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  TimePoint at;
  EventFn fn;
  EXPECT_FALSE(q.pop(&at, &fn));
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  const auto h = q.schedule(TimePoint::from_us(10), [] {});
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(&at, &fn));
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  const auto h1 = q.schedule(TimePoint::from_us(10), [] {});
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(&at, &fn));  // h1 fired; its pool slot is free
  bool ran = false;
  const auto h2 = q.schedule(TimePoint::from_us(20), [&ran] { ran = true; });
  EXPECT_EQ(h2.slot, h1.slot);  // LIFO pool reuse: same slot, new generation
  EXPECT_NE(h2.gen, h1.gen);
  EXPECT_FALSE(q.cancel(h1));  // stale handle is inert
  ASSERT_TRUE(q.pop(&at, &fn));
  fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, GenerationSurvivesManyReuses) {
  EventQueue q;
  EventQueue::Handle first = q.schedule(TimePoint::from_us(1), [] {});
  q.cancel(first);
  for (int i = 0; i < 1000; ++i) {
    const auto h = q.schedule(TimePoint::from_us(i + 2), [] {});
    EXPECT_EQ(h.slot, first.slot);
    EXPECT_FALSE(q.cancel(first));
    EXPECT_TRUE(q.cancel(h));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelReleasesSlotImmediately) {
  // A cancel-heavy workload (re-armed timers) must not grow the pool: the
  // slot is recycled at cancel time, not when the tombstone is popped.
  EventQueue q;
  for (int i = 0; i < 10'000; ++i) {
    const auto h = q.schedule(TimePoint::from_us(100 + i), [] {});
    q.cancel(h);
  }
  EXPECT_TRUE(q.empty());
  TimePoint at;
  EventFn fn;
  EXPECT_FALSE(q.pop(&at, &fn));
}

TEST(EventQueue, CancelChurnKeepsTheHeapBounded) {
  // The jitter buffer arms a timer per frame and cancels it when the frame
  // releases early; bench_core_queue's cancel workload schedules two events,
  // cancels one and fires one. Tombstones must not pile up: the physical
  // heap stays within a fixed bound of the live count.
  EventQueue q;
  std::mt19937_64 rng{11};
  const auto delay = [&rng](std::uint64_t span_us) {
    return Duration::micros(100 + static_cast<std::int64_t>(rng() % span_us));
  };
  TimePoint clock = TimePoint::origin();
  for (int i = 0; i < 64; ++i) q.schedule(clock + delay(50'000), [] {});
  std::size_t peak = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    q.schedule(clock + delay(50'000), [] {});
    const auto doomed = q.schedule(clock + delay(150'000), [] {
      ADD_FAILURE() << "cancelled event fired";
    });
    ASSERT_TRUE(q.cancel(doomed));
    ASSERT_TRUE(q.run_one(TimePoint::never(), &clock));
    ASSERT_LE(q.entries().size(), 2 * q.size() + 64);
    peak = std::max(peak, q.entries().size());
  }
  EXPECT_EQ(q.size(), 64u);
  EXPECT_GT(peak, q.size());  // tombstones did occur; the rebuild bounded them
}

TEST(EventQueue, RebuildAfterMassCancelKeepsPopOrder) {
  // Cancelling most of a large queue forces several heap rebuilds; the
  // survivors must still pop in (timestamp, FIFO seq) order, ties included.
  EventQueue q;
  std::mt19937_64 rng{5};
  std::vector<std::pair<std::int64_t, int>> expected;
  std::vector<int> got;
  for (int i = 0; i < 10'000; ++i) {
    const auto at = static_cast<std::int64_t>(rng() % 2'000) * 100;
    const auto h =
        q.schedule(TimePoint::from_us(at), [&got, i] { got.push_back(i); });
    if (rng() % 4 == 0) {
      expected.emplace_back(at, i);
    } else {
      ASSERT_TRUE(q.cancel(h));
    }
    ASSERT_LE(q.entries().size(), 2 * q.size() + 1);
  }
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(q.size(), expected.size());
  TimePoint clock;
  while (q.run_one(TimePoint::never(), &clock)) {
    ASSERT_EQ(clock.us(), expected[got.size() - 1].first);
  }
  std::vector<int> want;
  for (const auto& e : expected) want.push_back(e.second);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.entries().empty());
}

// --- EventQueue: stress vs reference heap ---

struct RefEvent {
  std::int64_t at_us;
  std::uint64_t seq;
  int tag;
};
struct RefAfter {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.at_us != b.at_us) return a.at_us > b.at_us;
    return a.seq > b.seq;
  }
};

TEST(EventQueue, MillionEventStressMatchesReferenceHeap) {
  // Random mixed workload: schedules across near/far horizons (with heavy
  // timestamp collisions to exercise FIFO ties), interleaved pops, and
  // random cancellation. The calendar must pop the exact sequence a plain
  // (timestamp, seq) min-heap pops.
  EventQueue q;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> ref;
  std::mt19937_64 rng{0xC0FFEE};
  std::vector<int> got;
  std::vector<std::pair<EventQueue::Handle, RefEvent>> cancellable;

  std::int64_t now_us = 0;
  std::uint64_t seq = 0;
  int tag = 0;
  int scheduled = 0;
  const int kTotal = 1'000'000;

  std::vector<bool> cancelled;  // indexed by tag
  cancelled.reserve(kTotal);

  while (scheduled < kTotal || !ref.empty()) {
    const auto r = rng();
    const bool do_schedule = scheduled < kTotal && (ref.empty() || (r % 5) != 0);
    if (do_schedule) {
      // Horizon mix: 60% inside the wheel window, 30% past it, 10% huge.
      std::int64_t delta;
      switch (rng() % 10) {
        case 0: delta = static_cast<std::int64_t>(rng() % 100'000'000); break;
        case 1:
        case 2:
        case 3: delta = static_cast<std::int64_t>(rng() % 3'000'000); break;
        default: delta = static_cast<std::int64_t>(rng() % 200'000); break;
      }
      // Collisions: quantize 1/3 of timestamps onto 1 ms ticks.
      if (rng() % 3 == 0) delta -= delta % 1000;
      const std::int64_t at = now_us + delta;
      const int t = tag++;
      cancelled.push_back(false);
      const auto h =
          q.schedule(TimePoint::from_us(at), [&got, t] { got.push_back(t); });
      ref.push(RefEvent{at, seq++, t});
      if (rng() % 16 == 0) cancellable.emplace_back(h, RefEvent{at, 0, t});
      ++scheduled;
    } else if (rng() % 7 == 0 && !cancellable.empty()) {
      const auto pick = rng() % cancellable.size();
      const auto [h, e] = cancellable[pick];
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      if (q.cancel(h)) cancelled[static_cast<std::size_t>(e.tag)] = true;
    } else {
      // Pop one event from both and compare.
      while (!ref.empty() &&
             cancelled[static_cast<std::size_t>(ref.top().tag)]) {
        ref.pop();
      }
      TimePoint at;
      EventFn fn;
      const bool live = q.pop(&at, &fn);
      if (!live) {
        ASSERT_TRUE(ref.empty());
        continue;
      }
      ASSERT_FALSE(ref.empty());
      const RefEvent e = ref.top();
      ref.pop();
      ASSERT_EQ(at.us(), e.at_us);
      fn();
      ASSERT_FALSE(got.empty());
      ASSERT_EQ(got.back(), e.tag);
      now_us = at.us();
    }
  }
  // Fully drained and every pop matched.
  EXPECT_TRUE(q.empty());
  std::size_t cancelled_count = 0;
  for (const bool c : cancelled) cancelled_count += c ? 1u : 0u;
  EXPECT_EQ(got.size() + cancelled_count, static_cast<std::size_t>(kTotal));
}

TEST(EventQueue, SizeTracksLiveEventsUnderChurn) {
  EventQueue q;
  std::mt19937_64 rng{7};
  std::vector<EventQueue::Handle> handles;
  std::size_t expect = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto h = q.schedule(TimePoint::from_us(static_cast<std::int64_t>(
                                  rng() % 1'000'000)),
                              [] {});
    ++expect;
    if (rng() % 2 == 0) {
      handles.push_back(h);
    }
    if (rng() % 3 == 0 && !handles.empty()) {
      if (q.cancel(handles.back())) --expect;
      handles.pop_back();
    }
    ASSERT_EQ(q.size(), expect);
  }
}

}  // namespace
}  // namespace rpv::sim
