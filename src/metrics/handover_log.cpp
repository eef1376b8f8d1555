#include "metrics/handover_log.hpp"

#include <algorithm>

namespace rpv::metrics {
namespace {

constexpr sim::Duration kWindow = sim::Duration::seconds(1.0);
constexpr sim::Duration kLead = sim::Duration::seconds(3.0);

bool within(sim::TimePoint t, sim::TimePoint from, sim::TimePoint to) {
  return t >= from && t <= to;
}

}  // namespace

double HandoverLog::frequency(sim::Duration observed) const {
  if (observed <= sim::Duration::zero()) return 0.0;
  return static_cast<double>(events_.size()) / observed.sec();
}

std::vector<double> HandoverLog::het_ms() const {
  std::vector<double> out;
  out.reserve(events_.size());
  for (const auto& e : events_) out.push_back(e.het.ms());
  return out;
}

std::size_t HandoverLog::ping_pong_count() const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(),
      [](const HandoverEvent& e) { return e.ping_pong; }));
}

std::vector<LatencyRatio> latency_ratios(const std::vector<HandoverWindows>& windows) {
  std::vector<LatencyRatio> out;
  for (const auto& w : windows) {
    if (w.before.n == 0 || w.after.n == 0) continue;
    if (w.before.min <= 0.0 || w.after.min <= 0.0) continue;
    out.push_back({w.before.max / w.before.min, w.after.max / w.after.min});
  }
  return out;
}

void HandoverWindowTracker::take(std::size_t event, sim::TimePoint t, double v) {
  const auto& e = log_->events()[event];
  auto& w = windows_[event];
  if (t < e.start - kLead) return;
  if (t <= e.start - kWindow) w.lead.add(v);
  if (within(t, e.start - kWindow, e.start)) w.before.add(v);
  const auto end = e.start + e.het;
  if (within(t, end, end + kWindow)) w.after.add(v);
}

void HandoverWindowTracker::open_new_events() {
  // Events logged since the last sample started no earlier than it, so the
  // ring still holds everything of theirs that came before.
  for (std::size_t i = windows_.size(); i < log_->count(); ++i) {
    windows_.emplace_back();
    // First sample inside the lead window (the ring is in time order).
    const auto from = log_->events()[i].start - kLead;
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (recent(mid).t < from) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (std::size_t k = lo; k < size_; ++k) take(i, recent(k).t, recent(k).value);
  }
}

void HandoverWindowTracker::add(sim::TimePoint t, double v) {
  if (windows_.size() < log_->count()) open_new_events();
  for (std::size_t i = first_open_; i < windows_.size(); ++i) take(i, t, v);
  // Every window of the front event ended before t: nothing can reach it.
  while (first_open_ < windows_.size()) {
    const auto& e = log_->events()[first_open_];
    if (std::max(e.start, e.start + e.het + kWindow) >= t) break;
    ++first_open_;
  }
  if (size_ == ring_.size()) {
    while (size_ > 0 && recent(0).t < t - kLead) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    if (size_ == ring_.size()) {
      std::vector<Sample> grown(std::max<std::size_t>(1024, 2 * ring_.size()));
      for (std::size_t k = 0; k < size_; ++k) grown[k] = recent(k);
      ring_ = std::move(grown);
      head_ = 0;
    }
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = {t, v};
  ++size_;
}

std::vector<HandoverWindows> HandoverWindowTracker::finish() {
  open_new_events();
  first_open_ = windows_.size();
  ring_.clear();
  head_ = size_ = 0;
  return std::move(windows_);
}

}  // namespace rpv::metrics
