#include "cellular/link_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rpv::cellular {

LinkQueue::LinkQueue(sim::Simulator& simulator, LinkQueueConfig cfg, RateFn rate,
                     DeliverFn deliver, DropFn on_drop)
    : sim_{simulator},
      cfg_{cfg},
      rate_{std::move(rate)},
      deliver_{std::move(deliver)},
      on_drop_{std::move(on_drop)} {}

void LinkQueue::enqueue(net::Packet p, DoneFn done) {
  if (queued_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
    ++drops_;
    if (bus_ && bus_->wants(obs::EventKind::kQueueDrop)) {
      bus_->publish(obs::Component::kLinkQueue, obs::EventKind::kQueueDrop,
                    sim_.now(),
                    obs::QueuePayload{p.id,
                                      static_cast<std::uint32_t>(p.size_bytes),
                                      static_cast<std::uint64_t>(queued_bytes_),
                                      static_cast<std::uint32_t>(queue_.size()),
                                      /*reason=*/0});
    }
    if (on_drop_) on_drop_(p);
    return;
  }
  queued_bytes_ += p.size_bytes;
  const net::Packet& q =
      queue_.push_back(Item{std::move(p), std::move(done)}).p;
  if (bus_ && bus_->wants(obs::EventKind::kQueueEnqueue)) {
    bus_->publish(obs::Component::kLinkQueue, obs::EventKind::kQueueEnqueue,
                  sim_.now(),
                  obs::QueuePayload{q.id,
                                    static_cast<std::uint32_t>(q.size_bytes),
                                    static_cast<std::uint64_t>(queued_bytes_),
                                    static_cast<std::uint32_t>(queue_.size()),
                                    /*reason=*/0});
  }
  maybe_start_service();
}

void LinkQueue::pause() {
  // Counted: overlapping interruptions (handover plus an injected RLF) each
  // pair their own pause/resume, and the queue only restarts when the last
  // one ends.
  ++pause_depth_;
  if (paused_) return;
  paused_ = true;
  if (busy_) {
    // Abort the in-flight serialization; the head is re-serialized in full
    // on resume (the radio bearer is torn down mid-transfer during a HO).
    service_timer_.cancel();
    busy_ = false;
  }
}

void LinkQueue::resume() {
  if (!paused_) return;
  if (pause_depth_ > 0 && --pause_depth_ > 0) return;
  paused_ = false;
  maybe_start_service();
}

double LinkQueue::queuing_delay_sec() const {
  const double rate = std::max(rate_(), 1.0);
  return static_cast<double>(queued_bytes_) * 8.0 / rate;
}

void LinkQueue::maybe_start_service() {
  if (busy_ || paused_ || queue_.empty()) return;
  busy_ = true;
  const net::Packet& head = queue_.front().p;
  const double rate = std::max(rate_(), 1e3);  // never fully zero outside pause
  const auto tx_time =
      sim::Duration::seconds(static_cast<double>(head.size_bytes) * 8.0 / rate);
  service_timer_ = sim_.schedule_timer_in(tx_time, [this] { finish_head(); });
}

void LinkQueue::finish_head() {
  busy_ = false;
  if (queue_.empty()) return;  // defensive
  Item& item = queue_.front();
  net::Packet p = std::move(item.p);
  DoneFn done = std::move(item.done);
  queue_.pop_front();
  queued_bytes_ -= p.size_bytes;
  p.sent = sim_.now();

  if (cfg_.aqm_enabled && aqm_should_drop(p)) {
    ++aqm_drops_;
    if (bus_ && bus_->wants(obs::EventKind::kQueueDrop)) {
      bus_->publish(obs::Component::kLinkQueue, obs::EventKind::kQueueDrop,
                    sim_.now(),
                    obs::QueuePayload{p.id,
                                      static_cast<std::uint32_t>(p.size_bytes),
                                      static_cast<std::uint64_t>(queued_bytes_),
                                      static_cast<std::uint32_t>(queue_.size()),
                                      /*reason=*/1});
    }
    if (on_drop_) on_drop_(p);
  } else {
    deliver_(std::move(p), std::move(done));
  }
  maybe_start_service();
}

bool LinkQueue::aqm_should_drop(const net::Packet& p) {
  // Simplified CoDel: track how long the sojourn time has continuously
  // exceeded the target; once above for a full interval, drop at dequeue
  // with an interval that shrinks as sqrt(drop count) while above.
  const auto now = sim_.now();
  const auto sojourn = now - p.enqueued;
  if (sojourn < cfg_.aqm_target) {
    first_above_ = sim::TimePoint::never();
    next_aqm_drop_ = sim::TimePoint::never();
    aqm_drop_count_ = 0;
    return false;
  }
  if (first_above_.is_never()) {
    first_above_ = now;
    return false;
  }
  if (now - first_above_ < cfg_.aqm_interval) return false;
  if (next_aqm_drop_.is_never() || now >= next_aqm_drop_) {
    ++aqm_drop_count_;
    // Linear interval shrink (harsher than classic CoDel's sqrt law): the
    // video sender may be unresponsive (static bitrate), so the drop rate
    // must be able to outgrow the queue input rate.
    next_aqm_drop_ =
        now + cfg_.aqm_interval * (1.0 / static_cast<double>(aqm_drop_count_));
    return true;
  }
  return false;
}

}  // namespace rpv::cellular
