#include "gauge.hpp"

#include <cmath>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "ledger.hpp"

namespace perfbench {

namespace {

// Slots of the walk: 8 MiB of indices, past L2 and into the shared L3.
constexpr std::size_t kRingSlots = std::size_t{1} << 21;
constexpr int kQueueDepth = 4096;
constexpr int kQueueOps = 60'000;
constexpr int kTableOps = 60'000;
constexpr int kWalkSteps = 150'000;
constexpr int kMathOps = 60'000;

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One pass over the same inputs every time; returns a digest of its results
// so the compiler keeps all of it.
std::uint64_t pass(const std::vector<std::uint32_t>& ring) {
  std::uint64_t s = 0x243f6a8885a308d3ULL;
  std::uint64_t acc = 0;
  // An event queue: pop the earliest time, push a later one.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> queue;
  for (int i = 0; i < kQueueDepth; ++i) queue.push(splitmix(s) >> 40);
  for (int i = 0; i < kQueueOps; ++i) {
    const std::uint64_t t = queue.top();
    queue.pop();
    acc += t;
    queue.push(t + (splitmix(s) >> 44));
  }
  // A flow table: a node-based hash map, grown from empty.
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (int i = 0; i < kTableOps; ++i) {
    auto& v = table[splitmix(s) & 0x3fff];
    v = v * 31 + static_cast<std::uint64_t>(i);
    acc ^= v;
  }
  // A dependent walk along the ring's single cycle.
  auto at = static_cast<std::uint32_t>(acc % ring.size());
  for (int i = 0; i < kWalkSteps; ++i) at = ring[at];
  acc += at;
  // Floating-point math.
  double x = 0.5;
  for (int i = 0; i < kMathOps; ++i) x = std::log1p(std::exp(-x)) + 1e-3 * (i & 7);
  return acc + static_cast<std::uint64_t>(x * 1e9);
}

}  // namespace

HostGauge::HostGauge() : ring_(kRingSlots) {
  // Sattolo's shuffle: a permutation that is one cycle through every slot.
  for (std::size_t i = 0; i < ring_.size(); ++i) ring_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t s = 0x5eedULL;
  for (std::size_t i = ring_.size() - 1; i > 0; --i)
    std::swap(ring_[i], ring_[splitmix(s) % i]);
  sink_ = pass(ring_);  // warms the caches and the allocator
}

double HostGauge::sample() {
  std::vector<double> t;
  for (int i = 0; i < kPassesPerSample; ++i) {
    const auto t0 = CpuClock::now();
    sink_ += pass(ring_);
    t.push_back(seconds_since(t0));
  }
  samples_.push_back(median(std::move(t)));
  return samples_.back();
}

void HostGauge::mark() { last_ = sample(); }

double HostGauge::settle() {
  const double before = last_;
  last_ = sample();
  return std::pow(0.5 * (before + last_) / kReferencePassS, kSensitivity);
}

}  // namespace perfbench
