#include "obs/metrics_registry.hpp"

#include "sim/validate.hpp"

namespace rpv::obs {

Histogram::Histogram(std::string name_, std::vector<double> edges_)
    : name(std::move(name_)), edges(std::move(edges_)) {
  rpv::validate(!edges.empty(), "Histogram needs at least one bucket edge");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    rpv::validate(edges[i - 1] < edges[i], "Histogram edges must ascend");
  }
  counts.assign(edges.size() + 1, 0);
}

void Histogram::add(double x) {
  std::size_t i = 0;
  while (i < edges.size() && x >= edges[i]) ++i;
  ++counts[i];
  ++total;
}

void Histogram::merge(const Histogram& other) {
  rpv::validate(name == other.name, "Histogram::merge: name mismatch");
  rpv::validate(edges == other.edges, "Histogram::merge: edge mismatch");
  rpv::validate(counts.size() == other.counts.size(),
                "Histogram::merge: bucket count mismatch");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
}

Histogram make_owd_histogram(std::string name) {
  return Histogram{std::move(name), {20, 50, 100, 150, 200, 300, 500, 1000, 2000}};
}

Histogram make_stall_histogram(std::string name) {
  return Histogram{std::move(name), {300, 500, 1000, 2000, 5000}};
}

MetricsRegistry::MetricsRegistry()
    : het_ms_("het_ms", {20, 50, 100, 200, 500, 1000, 2000}),
      owd_ms_(make_owd_histogram("owd_ms")),
      stall_ms_(make_stall_histogram("stall_ms")),
      queue_kbytes_("queue_kbytes", {16, 64, 256, 1024, 4096}),
      target_rate_mbps_("target_rate_mbps", {2, 4, 8, 12, 16, 24, 32}) {}

void MetricsRegistry::on_event(const Event& e) {
  ++counts_[static_cast<std::size_t>(e.component)]
           [static_cast<std::size_t>(e.kind)];
  switch (e.kind) {
    case EventKind::kHandoverStart:
      if (const auto* h = std::get_if<HandoverPayload>(&e.payload)) {
        het_ms_.add(static_cast<double>(h->het_us) / 1000.0);
      }
      break;
    case EventKind::kPacketReceived:
      if (const auto* p = std::get_if<PacketPayload>(&e.payload)) {
        owd_ms_.add(p->owd_ms);
      }
      break;
    case EventKind::kStall:
      if (const auto* s = std::get_if<StallPayload>(&e.payload)) {
        stall_ms_.add(s->duration_ms);
      }
      break;
    case EventKind::kQueueDepth:
      if (const auto* q = std::get_if<QueuePayload>(&e.payload)) {
        queue_kbytes_.add(static_cast<double>(q->queued_bytes) / 1024.0);
      }
      break;
    case EventKind::kTargetRate:
      if (const auto* r = std::get_if<RatePayload>(&e.payload)) {
        target_rate_mbps_.add(r->bps / 1e6);
      }
      break;
    default:
      break;
  }
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      counts_[c][k] += other.counts_[c][k];
    }
  }
  het_ms_.merge(other.het_ms_);
  owd_ms_.merge(other.owd_ms_);
  stall_ms_.merge(other.stall_ms_);
  queue_kbytes_.merge(other.queue_kbytes_);
  target_rate_mbps_.merge(other.target_rate_mbps_);
}

MetricsSummary MetricsRegistry::summary() const {
  MetricsSummary s;
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      if (counts_[c][k] == 0) continue;
      std::string name(component_name(static_cast<Component>(c)));
      name += '/';
      name += event_kind_name(static_cast<EventKind>(k));
      s.counters.push_back({std::move(name), counts_[c][k]});
    }
  }
  s.histograms = {het_ms_, owd_ms_, stall_ms_, queue_kbytes_, target_rate_mbps_};
  return s;
}

}  // namespace rpv::obs
