#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rpv::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::origin());
}

TEST(Simulator, ExecutesInTimestampOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_us(300), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::from_us(100), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::from_us(200), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  TimePoint seen;
  s.schedule_at(TimePoint::from_us(12345), [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen.us(), 12345);
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(TimePoint::from_us(50), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.schedule_in(Duration::millis(10), [&] {
    times.push_back(s.now().us());
    s.schedule_in(Duration::millis(10), [&] { times.push_back(s.now().us()); });
  });
  s.run_all();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10'000, 20'000}));
}

TEST(Simulator, PastEventsRunAtCurrentTime) {
  Simulator s;
  s.schedule_at(TimePoint::from_us(1000), [&] {
    s.schedule_at(TimePoint::from_us(1), [&] {
      EXPECT_EQ(s.now().us(), 1000);  // never goes backwards
    });
  });
  s.run_all();
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Simulator, TimerCancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  auto t = s.schedule_timer_at(TimePoint::from_us(10), [&] { ran = true; });
  EXPECT_TRUE(t.cancel());
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, DefaultTimerCancelIsNoop) {
  Timer t;
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.cancel());
}

TEST(Simulator, TimerCancelTwiceSecondFails) {
  Simulator s;
  auto t = s.schedule_timer_at(TimePoint::from_us(10), [] {});
  EXPECT_TRUE(t.cancel());
  EXPECT_FALSE(t.cancel());
}

TEST(Simulator, TimerDestructionCancels) {
  Simulator s;
  bool ran = false;
  {
    auto t = s.schedule_timer_at(TimePoint::from_us(10), [&] { ran = true; });
    EXPECT_TRUE(t.pending());
  }
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, TimerReleaseLetsEventFire) {
  Simulator s;
  bool ran = false;
  {
    auto t = s.schedule_timer_at(TimePoint::from_us(10), [&] { ran = true; });
    t.release();
  }
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Simulator, TimerInertAfterFire) {
  Simulator s;
  int runs = 0;
  auto t = s.schedule_timer_at(TimePoint::from_us(10), [&] { ++runs; });
  s.run_all();
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.cancel());
  // The slot may be reused by a new event; the stale timer must not touch it.
  bool second = false;
  auto t2 = s.schedule_timer_at(TimePoint::from_us(20), [&] { second = true; });
  EXPECT_FALSE(t.cancel());
  s.run_all();
  EXPECT_TRUE(second);
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, TimerReassignmentCancelsPrevious) {
  Simulator s;
  bool first = false;
  bool second = false;
  auto t = s.schedule_timer_at(TimePoint::from_us(10), [&] { first = true; });
  t = s.schedule_timer_at(TimePoint::from_us(20), [&] { second = true; });
  s.run_all();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(TimePoint::from_us(i * 100), [&] { ++count; });
  }
  s.run_until(TimePoint::from_us(500));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now().us(), 500);
}

TEST(Simulator, RunUntilDoesNotRunPastACancelledHead) {
  // A cancelled timer heading the queue must not let run_until() execute the
  // next live event beyond its limit.
  Simulator s;
  bool ran = false;
  s.schedule_at(TimePoint::from_us(900), [&ran] { ran = true; });
  Timer doomed = s.schedule_timer_at(TimePoint::from_us(100), [] {
    ADD_FAILURE() << "cancelled event fired";
  });
  EXPECT_TRUE(doomed.cancel());
  s.run_until(TimePoint::from_us(500));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.now().us(), 500);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now().us(), 900);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(TimePoint::from_us(777));
  EXPECT_EQ(s.now().us(), 777);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(TimePoint::from_us(5), [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ReentrantSchedulingFromHandler) {
  Simulator s;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) s.schedule_in(Duration::micros(1), recur);
  };
  s.schedule_at(TimePoint::origin(), recur);
  s.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now().us(), 99);
}

TEST(Simulator, PendingEventsAccountsForCancellation) {
  Simulator s;
  auto a = s.schedule_timer_at(TimePoint::from_us(1), [] {});
  s.schedule_at(TimePoint::from_us(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  a.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator s;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    s.schedule_at(TimePoint::from_us(t), [&times, &s] { times.push_back(s.now().us()); });
  }
  s.run_all();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), 1000u);
}

}  // namespace
}  // namespace rpv::sim
