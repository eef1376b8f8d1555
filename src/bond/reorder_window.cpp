#include "bond/reorder_window.hpp"

#include <algorithm>
#include <utility>

#include "obs/event.hpp"
#include "sim/validate.hpp"

namespace rpv::bond {
namespace {

// Bound on the duplicate filter; generous versus the few hundred packets in
// flight, tiny versus a full run.
constexpr std::uint64_t kSeenCap = 60000;
constexpr std::uint64_t kSeenPrune = 20000;

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
  Seen& seen = seen_[p.transport_seq];
  if (seen.key == key && seen.stamp > forgotten_) {
    ++duplicates_suppressed_;
    return;
  }
  seen = {key, ++accepted_};
  if (accepted_ - forgotten_ > kSeenCap) forgotten_ += kSeenPrune;

  if (!started_) {
    started_ = true;
    next_expected_ = p.transport_seq;
  }
  const std::int64_t seq =
      next_expected_ +
      rtp::seq_diff(p.transport_seq, static_cast<std::uint16_t>(next_expected_));
  if (seq - next_expected_ >= kMaxJump) {
    if (seq != jump_successor_) {
      // A copy trailing the stream by more than half the seq space.
      jump_successor_ = seq + 1;
      ++late_;
      ++delivered_;
      deliver_(std::move(p), path);
      return;
    }
    // Its predecessor was no stray copy: the stream jumped.
    if (!buffer_.empty()) {
      const auto released = release_through(buffer_.back());
      ++flushes_;
      publish_flush(released, 2, hold_window().ms());
    }
    next_expected_ = seq;
  }
  jump_successor_ = -1;

  if (seq < next_expected_ || buffer_.find(seq) != nullptr) {
    // Its gap was already flushed past, or another packet holds its seq:
    // release it now (downstream jitter buffering absorbs the reorder).
    ++late_;
    ++delivered_;
    deliver_(std::move(p), path);
    return;
  }

  buffer_.insert(seq, Held{std::move(p), path});
  arrivals_.push_back({now, seq});
  drain_in_order();
  if (buffer_.size() >= cfg_.max_packets) {
    // Overflow: the missing packet is not coming (or the window is too small
    // for the current skew) — release everything rather than grow unbounded.
    const auto released = release_through(buffer_.back());
    ++flushes_;
    publish_flush(released, 1, hold_window().ms());
  }
  arm_timer();
}

void ReorderWindow::deliver_front() {
  Held held = buffer_.take(buffer_.front());
  ++delivered_;
  deliver_(std::move(held.packet), held.path);
}

void ReorderWindow::drain_in_order() {
  while (!buffer_.empty() && buffer_.front() == next_expected_) {
    ++next_expected_;
    deliver_front();
  }
  if (buffer_.empty()) arrivals_.clear();
}

std::uint32_t ReorderWindow::release_through(std::int64_t last) {
  // Release buffered packets in sequence order up to and including `last`,
  // skipping the gaps that never arrived.
  std::uint32_t released = 0;
  while (!buffer_.empty() && buffer_.front() <= last) {
    next_expected_ = buffer_.front() + 1;
    deliver_front();
    ++released;
  }
  drain_in_order();
  return released;
}

void ReorderWindow::flush_expired() {
  timer_deadline_ = sim::TimePoint::never();
  if (buffer_.empty()) return;
  const auto now = sim_.now();
  const auto hold = hold_window();
  // Everything up to and including the newest expired packet is released:
  // packets with smaller sequence numbers than an expired one must precede it
  // regardless of their own age. Arrivals are in time order, so the expired
  // ones are a prefix.
  std::int64_t last = next_expected_ - 1;
  for (const auto& a : arrivals_) {
    if (a.at + hold > now) break;
    last = std::max(last, a.seq);
  }
  const auto released = release_through(last);
  if (released > 0) {
    ++flushes_;
    publish_flush(released, 0, hold.ms());
  }
  arm_timer();
}

void ReorderWindow::arm_timer() {
  while (!arrivals_.empty() && arrivals_.front().seq < next_expected_) {
    arrivals_.pop_front();
  }
  if (buffer_.empty()) {
    timer_.cancel();
    timer_deadline_ = sim::TimePoint::never();
    return;
  }
  // The next deadline is the oldest arrival plus the hold window.
  const auto deadline = arrivals_.front().at + hold_window();
  if (timer_.pending() && deadline >= timer_deadline_) return;
  timer_deadline_ = deadline;
  // Re-arming cancels the previous deadline.
  timer_ = sim_.schedule_timer_at(deadline, [this] { flush_expired(); });
}

void ReorderWindow::flush_all() {
  timer_.cancel();
  timer_deadline_ = sim::TimePoint::never();
  if (buffer_.empty()) return;
  const auto released = release_through(buffer_.back());
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
