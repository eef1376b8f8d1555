// Core engine microbench: raw sim::EventQueue throughput, isolated from any
// scenario logic, so the perf gate can tell "the event queue regressed"
// apart from "a handler got slower". K outstanding timers is a far larger
// heap than a session keeps (a few dozen events), so these rates price the
// queue's O(log n) operations, not its in-situ cache footprint.
//
// Three workloads, each a pattern the simulator actually produces:
//   steady    self-clocking timer population — K outstanding timers, every
//             handler re-arms itself 0.1–50 ms ahead (pacing/pump/service
//             timers).
//   cancel    retransmit-timer churn — schedule two, cancel one, fire one;
//             half the scheduled events die as generation-checked tombstones
//             that the heap drops at the top or in a rebuild.
//   overflow  far-horizon timers 0.3–10 s ahead (watchdogs, keyframe guards,
//             mission epochs). The name dates from the calendar queue's
//             overflow heap; the workload is kept so results stay comparable.
//
// Exit status encodes the acceptance verdict: 0 when a mixed 200k-event run
// pops in exactly the (timestamp, FIFO seq) order of a std::priority_queue
// reference fed the same schedule, 1 otherwise.
//
//   bench_core_queue [--events N] [--outstanding K] [--seed S]
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "metrics/text_table.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

using namespace rpv;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadResult {
  std::uint64_t executed = 0;
  double wall_seconds = 0.0;
};

// K self-rescheduling timers, delays uniform in [100 us, 50 ms].
WorkloadResult run_steady(std::uint64_t target, std::size_t outstanding,
                          std::uint64_t seed) {
  sim::EventQueue q;
  sim::Rng rng{seed};
  sim::TimePoint clock = sim::TimePoint::origin();
  std::uint64_t executed = 0;

  struct Timer {
    sim::EventQueue* q;
    sim::Rng* rng;
    sim::TimePoint* clock;
    std::uint64_t* executed;
    void fire() {
      ++*executed;
      const auto delay =
          sim::Duration::micros(rng->uniform_int(100, 50'000));
      q->schedule(*clock + delay, [this] { fire(); });
    }
  };
  Timer timer{&q, &rng, &clock, &executed};

  for (std::size_t i = 0; i < outstanding; ++i) {
    const auto delay = sim::Duration::micros(rng.uniform_int(100, 50'000));
    q.schedule(clock + delay, [&timer] { timer.fire(); });
  }

  const double t0 = now_seconds();
  while (executed < target && q.run_one(sim::TimePoint::never(), &clock)) {
  }
  const double wall = now_seconds() - t0;
  return {executed, wall};
}

// Each fired event schedules two successors and cancels one of them, so half
// the schedule() calls become tombstones the queue must drop lazily — the
// retransmit/watchdog pattern where most timers never fire.
WorkloadResult run_cancel(std::uint64_t target, std::size_t outstanding,
                          std::uint64_t seed) {
  sim::EventQueue q;
  sim::Rng rng{seed};
  sim::TimePoint clock = sim::TimePoint::origin();
  std::uint64_t executed = 0;

  struct Churn {
    sim::EventQueue* q;
    sim::Rng* rng;
    sim::TimePoint* clock;
    std::uint64_t* executed;
    void fire() {
      ++*executed;
      const auto d1 = sim::Duration::micros(rng->uniform_int(100, 50'000));
      const auto d2 = sim::Duration::micros(rng->uniform_int(100, 50'000));
      q->schedule(*clock + d1, [this] { fire(); });
      const auto doomed = q->schedule(*clock + d2, [this] { fire(); });
      q->cancel(doomed);
    }
  };
  Churn churn{&q, &rng, &clock, &executed};

  for (std::size_t i = 0; i < outstanding; ++i) {
    const auto delay = sim::Duration::micros(rng.uniform_int(100, 50'000));
    q.schedule(clock + delay, [&churn] { churn.fire(); });
  }

  const double t0 = now_seconds();
  while (executed < target && q.run_one(sim::TimePoint::never(), &clock)) {
  }
  const double wall = now_seconds() - t0;
  return {executed, wall};
}

// Far-horizon timers: every delay is 0.3–10 s, so the pending set spans a
// wide time range with few timestamp ties.
WorkloadResult run_overflow(std::uint64_t target, std::size_t outstanding,
                            std::uint64_t seed) {
  sim::EventQueue q;
  sim::Rng rng{seed};
  sim::TimePoint clock = sim::TimePoint::origin();
  std::uint64_t executed = 0;

  struct Horizon {
    sim::EventQueue* q;
    sim::Rng* rng;
    sim::TimePoint* clock;
    std::uint64_t* executed;
    void fire() {
      ++*executed;
      const auto delay =
          sim::Duration::micros(rng->uniform_int(300'000, 10'000'000));
      q->schedule(*clock + delay, [this] { fire(); });
    }
  };
  Horizon horizon{&q, &rng, &clock, &executed};

  for (std::size_t i = 0; i < outstanding; ++i) {
    const auto delay =
        sim::Duration::micros(rng.uniform_int(300'000, 10'000'000));
    q.schedule(clock + delay, [&horizon] { horizon.fire(); });
  }

  const double t0 = now_seconds();
  while (executed < target && q.run_one(sim::TimePoint::never(), &clock)) {
  }
  const double wall = now_seconds() - t0;
  return {executed, wall};
}

// Cross-check: a mixed schedule (near, far, and equal timestamps) must pop
// from EventQueue in exactly the (timestamp, FIFO seq) order of a binary
// heap fed the same events. This is the determinism contract the simulator
// builds on; the unit tests cover it too, but the bench re-asserts it on
// every gate run at zero extra cost.
bool reference_order_check(std::uint64_t events, std::uint64_t seed) {
  sim::EventQueue q;
  sim::Rng rng{seed};
  // (at_us, seq) pairs; the reference pops the lexicographic minimum.
  using Ref = std::pair<std::int64_t, std::uint64_t>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;

  std::vector<std::uint64_t> order;
  order.reserve(events);
  std::int64_t base = 0;
  for (std::uint64_t i = 0; i < events; ++i) {
    // Mix of short, long, and deliberately colliding timestamps.
    std::int64_t at = base + rng.uniform_int(0, 400'000);
    if (rng.chance(0.1)) at = base;                        // FIFO collision
    if (rng.chance(0.05)) at = base + 5'000'000;           // far future
    const std::uint64_t id = i;
    q.schedule(sim::TimePoint::from_us(at),
               [&order, id] { order.push_back(id); });
    ref.emplace(at, i);
    if (i % 64 == 0) base += rng.uniform_int(0, 1'000);
  }

  sim::TimePoint clock = sim::TimePoint::origin();
  while (q.run_one(sim::TimePoint::never(), &clock)) {
  }
  if (order.size() != events) return false;
  for (std::uint64_t i = 0; i < events; ++i) {
    if (order[i] != ref.top().second) return false;
    ref.pop();
  }
  return true;
}

void print_usage(const char* prog) {
  std::cout << "usage: " << prog
            << " [--events N] [--outstanding K] [--seed S]\n"
               "  --events N        events per workload (default 4000000)\n"
               "  --outstanding K   concurrent timers (default 4096)\n"
               "  --seed S          rng seed (default 42)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 4'000'000;
  std::size_t outstanding = 4096;
  std::uint64_t seed = 42;

  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--events") {
        events = parse_number<std::uint64_t>(arg, value_of(i, arg), 1);
      } else if (arg == "--outstanding") {
        outstanding = parse_number<std::size_t>(arg, value_of(i, arg), 1);
      } else if (arg == "--seed") {
        seed = parse_number<std::uint64_t>(arg, value_of(i, arg), 0);
      } else if (arg == "--help" || arg == "-h") {
        print_usage(argv[0]);
        return 0;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        print_usage(argv[0]);
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n\n";
      print_usage(argv[0]);
      return 2;
    }
  }

  std::cout
      << "==============================================================\n"
      << "Core engine — sim::EventQueue microbench\n"
      << "==============================================================\n"
      << events << " events/workload, " << outstanding
      << " outstanding timers, seed " << seed << "\n\n";

  metrics::TextTable table{
      {"workload", "events", "wall (s)", "events/s", "RSS (MB)"}};

  struct Case {
    const char* name;
    WorkloadResult (*run)(std::uint64_t, std::size_t, std::uint64_t);
  };
  const Case cases[] = {
      {"steady", run_steady}, {"cancel", run_cancel}, {"overflow", run_overflow}};

  for (const Case& c : cases) {
    const WorkloadResult r = c.run(events, outstanding, seed);
    const double rate =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.executed) / r.wall_seconds
            : 0.0;
    table.add_row({c.name, std::to_string(r.executed),
                   metrics::TextTable::num(r.wall_seconds, 2),
                   metrics::TextTable::num(rate, 0),
                   metrics::TextTable::num(peak_rss_mb(), 0)});
  }

  std::cout << table.render();

  const bool order_ok = reference_order_check(200'000, seed);
  std::cout << "\nreference pop-order check (200k mixed events vs binary "
               "heap): "
            << (order_ok ? "IDENTICAL" : "MISMATCH") << "\n";
  return order_ok ? 0 : 1;
}
