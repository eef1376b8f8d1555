// Shared plumbing of the repository benchmark: clocks, the in-memory span
// recorder, the named-metric ledger and the FNV-1a output digest.
//
// Spans are recorded by the benchmark's own code around each public call
// into the simulator (never inside it), kept in memory, and written out as
// JSON lines when the run ends.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Wall clock: span start/end stamps and the run's time budget.
using Clock = std::chrono::steady_clock;

// CPU time of the whole process, the clock every reported timing uses. At
// one worker the simulator is one busy thread, so this is its wall time
// without the time the hypervisor held the vCPU (steal time, which paravirt
// time accounting keeps out of task clocks). On a shared host that steal
// comes in multi-second bursts and would otherwise dominate the spread.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point{duration{static_cast<rep>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec}};
  }
};

template <typename C>
[[nodiscard]] double seconds_between(typename C::time_point a,
                                     typename C::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename C = CpuClock>
[[nodiscard]] double seconds_since(typename C::time_point t0) {
  return seconds_between<C>(t0, C::now());
}

// 64-bit FNV-1a, fed incrementally. Used for the per-workload output
// digest: each run's canonical report bytes, in run order.
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int iteration = -1;
  bool traced = false;
  double start_s = 0.0;  // wall clock, since the recorder's origin
  double end_s = 0.0;
  double cpu_s = 0.0;  // CPU time inside the span
  CpuClock::time_point cpu_start{};
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_{origin} {}

  // Opens a span nested in the innermost open one; returns its index.
  int open(std::string name, int iteration, bool traced);
  // Closes span `id` and returns its CPU time in seconds.
  double close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Writes one JSON object per span; returns false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span: closes on destruction unless stop() already did.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, std::string name, int iteration, bool traced)
      : rec_{rec}, id_{rec.open(std::move(name), iteration, traced)} {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (!stopped_) rec_.close(id_);
  }
  double stop() {
    stopped_ = true;
    return rec_.close(id_);
  }

 private:
  SpanRecorder& rec_;
  int id_;
  bool stopped_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The median of repeated timings of the same work (0 for none).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
