#include "bond/reorder_window.hpp"

#include <algorithm>
#include <utility>

#include "obs/event.hpp"
#include "sim/validate.hpp"

namespace rpv::bond {
namespace {

// Bound on the duplicate-suppression set; generous versus the few hundred
// packets in flight, tiny versus a full run.
constexpr std::size_t kSeenCap = 60000;
constexpr std::size_t kSeenPrune = 20000;

}  // namespace

ReorderWindow::ReorderWindow(sim::Simulator& simulator, ReorderWindowConfig cfg,
                             DeliverFn deliver)
    : sim_{simulator}, cfg_{cfg}, deliver_{std::move(deliver)} {
  rpv::validate(static_cast<bool>(deliver_),
                "ReorderWindow: deliver callback required");
  rpv::validate(cfg_.max_packets > 0, "ReorderWindow: max_packets must be > 0");
  rpv::validate(cfg_.base_hold <= cfg_.max_hold,
                "ReorderWindow: base_hold must not exceed max_hold");
}

std::uint64_t ReorderWindow::dedup_key(const net::Packet& p) {
  // Parity packets live in their own key space (their frame_id is unset);
  // media packets key on (frame, transport_seq). origin_id ties duplicate
  // copies back to one logical packet, but that pair is already
  // copy-invariant and cheaper.
  if (p.kind == net::PacketKind::kFecParity) {
    return (1ULL << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.fec_group))
            << 16) |
           p.transport_seq;
  }
  return (static_cast<std::uint64_t>(p.frame_id) << 16) | p.transport_seq;
}

sim::Duration ReorderWindow::hold_window() const {
  // Hold long enough to cover the measured inter-path skew (plus headroom for
  // jitter), but never past the cap — a gap older than ~2 frame intervals is
  // loss, and FEC or concealment handles it better than added latency.
  const auto skew = sim::Duration::seconds(skew_ms() * 1.5 / 1e3);
  return std::clamp(skew, cfg_.base_hold, cfg_.max_hold);
}

double ReorderWindow::skew_ms() const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < path_latency_ms_.size(); ++i) {
    if (!path_seen_[i]) continue;
    if (!any) {
      lo = hi = path_latency_ms_[i];
      any = true;
    } else {
      lo = std::min(lo, path_latency_ms_[i]);
      hi = std::max(hi, path_latency_ms_[i]);
    }
  }
  return any ? hi - lo : 0.0;
}

void ReorderWindow::on_packet(net::Packet p, int path) {
  const auto now = sim_.now();

  // One-way latency estimate for this path: time since the packet started on
  // the radio. Absolute accuracy does not matter — only the *difference*
  // between paths feeds the hold window.
  if (path >= 0) {
    const auto idx = static_cast<std::size_t>(path);
    if (idx >= path_latency_ms_.size()) {
      path_latency_ms_.resize(idx + 1, 0.0);
      path_seen_.resize(idx + 1, false);
    }
    const double owd_ms = (now - p.sent).ms();
    if (!path_seen_[idx]) {
      path_latency_ms_[idx] = owd_ms;
      path_seen_[idx] = true;
    } else {
      path_latency_ms_[idx] +=
          cfg_.skew_alpha * (owd_ms - path_latency_ms_[idx]);
    }
  }

  // Duplicate suppression: exactly one copy of each logical packet passes.
  const std::uint64_t key = dedup_key(p);
  if (!seen_.insert(key).second) {
    ++duplicates_suppressed_;
    return;
  }
  seen_order_.push_back(key);
  if (seen_order_.size() > kSeenCap) {
    for (std::size_t i = 0; i < kSeenPrune; ++i) {
      seen_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
  }

  const std::int64_t seq = unwrapper_.unwrap(p.transport_seq);
  if (!started_) {
    started_ = true;
    next_expected_ = seq;
  }

  if (seq < next_expected_) {
    // Its gap was already flushed past; release immediately rather than
    // re-order backwards (downstream jitter buffering absorbs it).
    ++late_;
    ++delivered_;
    deliver_(std::move(p), path);
    return;
  }

  buffer_.emplace(seq, Held{std::move(p), now, path});
  drain_in_order();
  if (buffer_.size() >= cfg_.max_packets) {
    // Overflow: the missing packet is not coming (or the window is too small
    // for the current skew) — release everything rather than grow unbounded.
    const auto released = static_cast<std::uint32_t>(buffer_.size());
    release(buffer_.end());
    ++flushes_;
    publish_flush(released, 1, hold_window().ms());
  }
  arm_timer();
}

void ReorderWindow::drain_in_order() {
  auto it = buffer_.begin();
  while (it != buffer_.end() && it->first == next_expected_) {
    ++next_expected_;
    ++delivered_;
    deliver_(std::move(it->second.packet), it->second.path);
    it = buffer_.erase(it);
  }
}

void ReorderWindow::release(std::map<std::int64_t, Held>::iterator end_it) {
  // Release buffered packets in sequence order up to (not including) end_it,
  // skipping the gaps that never arrived.
  auto it = buffer_.begin();
  while (it != end_it) {
    next_expected_ = it->first + 1;
    ++delivered_;
    deliver_(std::move(it->second.packet), it->second.path);
    it = buffer_.erase(it);
  }
  drain_in_order();
}

void ReorderWindow::flush_expired() {
  timer_deadline_ = sim::TimePoint::never();
  if (buffer_.empty()) return;
  const auto now = sim_.now();
  const auto hold = hold_window();
  // Everything up to and including the newest expired packet is released:
  // packets with smaller sequence numbers than an expired one must precede it
  // regardless of their own age.
  auto end_it = buffer_.begin();
  std::uint32_t released = 0;
  for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
    if (it->second.arrived + hold <= now) {
      end_it = std::next(it);
      released = static_cast<std::uint32_t>(
          std::distance(buffer_.begin(), end_it));
    }
  }
  if (released > 0) {
    release(end_it);
    ++flushes_;
    publish_flush(released, 0, hold.ms());
  }
  arm_timer();
}

void ReorderWindow::arm_timer() {
  if (buffer_.empty()) {
    timer_.cancel();
    timer_deadline_ = sim::TimePoint::never();
    return;
  }
  // The next deadline is the oldest arrival plus the hold window.
  sim::TimePoint oldest = sim::TimePoint::never();
  for (const auto& [seq, held] : buffer_) {
    oldest = std::min(oldest, held.arrived);
  }
  const auto deadline = oldest + hold_window();
  if (timer_.pending() && deadline >= timer_deadline_) return;
  timer_deadline_ = deadline;
  // Re-arming cancels the previous deadline.
  timer_ = sim_.schedule_timer_at(deadline, [this] { flush_expired(); });
}

void ReorderWindow::flush_all() {
  timer_.cancel();
  timer_deadline_ = sim::TimePoint::never();
  if (buffer_.empty()) return;
  const auto released = static_cast<std::uint32_t>(buffer_.size());
  release(buffer_.end());
  ++flushes_;
  publish_flush(released, 2, hold_window().ms());
}

void ReorderWindow::publish_flush(std::uint32_t released, std::uint8_t reason,
                                  double hold_ms) {
  if (bus_ == nullptr || !bus_->wants(obs::EventKind::kReorderFlush)) return;
  bus_->publish(obs::Component::kBond, obs::EventKind::kReorderFlush,
                sim_.now(), obs::ReorderFlushPayload{released, reason, hold_ms});
}

}  // namespace rpv::bond
