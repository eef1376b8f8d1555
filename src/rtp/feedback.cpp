#include "rtp/feedback.hpp"

#include <algorithm>

#include "rtp/sequence.hpp"
#include "sim/validate.hpp"

namespace rpv::rtp {
namespace {

std::uint16_t rewrap(std::int64_t unwrapped) {
  return static_cast<std::uint16_t>(unwrapped & 0xFFFF);
}

}  // namespace

void TwccCollector::on_packet(std::uint16_t transport_seq, sim::TimePoint arrival) {
  const std::int64_t s = unwrapper_.unwrap(transport_seq);
  if (pending_.empty()) {
    min_pending_ = max_pending_ = s;
  } else {
    min_pending_ = std::min(min_pending_, s);
    max_pending_ = std::max(max_pending_, s);
  }
  pending_.emplace_back(s, arrival);
}

FeedbackReport TwccCollector::build_report(sim::TimePoint now) {
  FeedbackReport report;
  report.generated = now;
  if (pending_.empty()) return report;

  std::int64_t first = last_reported_ >= 0 ? last_reported_ + 1 : min_pending_;
  const std::int64_t last = max_pending_;
  // Defensive: a pathological unwrap (or a very long radio silence) must not
  // produce a giant or negative report range.
  if (first > last || last - first > 20000) first = min_pending_;
  const auto range = static_cast<std::size_t>(last - first + 1);
  report.results.resize(range);
  for (std::size_t i = 0; i < range; ++i) {
    report.results[i].transport_seq = rewrap(first + static_cast<std::int64_t>(i));
  }
  for (const auto& [s, arrival] : pending_) {
    if (s < first || s > last) continue;
    PacketResult& r = report.results[static_cast<std::size_t>(s - first)];
    if (!r.received) {  // first arrival wins for duplicated seqs
      r.received = true;
      r.arrival = arrival;
    }
  }
  last_reported_ = last;
  pending_.clear();
  return report;
}

Rfc8888Collector::Rfc8888Collector(int ack_window) : ack_window_{ack_window} {
  rpv::validate(ack_window >= 1, "Rfc8888Collector: ack_window must be >= 1");
}

void Rfc8888Collector::on_packet(std::uint16_t transport_seq, sim::TimePoint arrival) {
  const std::int64_t retained = 4 * static_cast<std::int64_t>(ack_window_);
  if (!unwrapper_.started()) arrivals_.reserve(static_cast<std::size_t>(retained) + 1);
  const std::int64_t s = unwrapper_.unwrap(transport_seq);
  // Trim state well behind any feedback window we could still report; a
  // packet arriving already behind it is never retained.
  const std::int64_t keep_from = unwrapper_.highest() - retained;
  arrivals_.erase_below(keep_from);
  if (s >= keep_from) arrivals_.insert(s, arrival);
}

FeedbackReport Rfc8888Collector::build_report(sim::TimePoint now) const {
  FeedbackReport report;
  report.generated = now;
  if (!has_data()) return report;
  // The highest seq is always retained, so the ring is never empty here.
  const std::int64_t highest = unwrapper_.highest();
  const std::int64_t first =
      std::max(arrivals_.front(), highest - ack_window_ + 1);
  report.results.resize(static_cast<std::size_t>(highest - first + 1));
  std::int64_t s = first;
  for (PacketResult& r : report.results) {
    r.transport_seq = rewrap(s);
    if (const sim::TimePoint* arrival = arrivals_.find(s)) {
      r.received = true;
      r.arrival = *arrival;
    }
    ++s;
  }
  return report;
}

}  // namespace rpv::rtp
