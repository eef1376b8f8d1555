// MetricsRegistry — the aggregate sink: per-(component, kind) counters and a
// fixed set of histograms summarized into SessionReport (schema v3).
//
// Counters and histogram layouts are fixed at compile time so summaries are
// deterministic: the same event stream always yields the same counter order
// and the same bucket counts, and the JSON round-trips byte-identically.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/event_sink.hpp"

namespace rpv::obs {

struct Counter {
  std::string name;  // "component/kind", e.g. "cellular/handover-start"
  std::uint64_t value = 0;
  bool operator==(const Counter&) const = default;
};

// Fixed-bucket histogram. Bucket i counts samples with x < edges[i] (a sample
// exactly on an edge falls into the next bucket); the last bucket counts
// x >= edges.back(). counts.size() == edges.size() + 1.
struct Histogram {
  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  Histogram() = default;
  Histogram(std::string name_, std::vector<double> edges_);

  void add(double x);
  // Fold another histogram with identical name and edges into this one
  // (bucket-wise count addition). Merging is commutative and associative,
  // so any fold order over per-shard histograms yields the same result.
  // Throws std::invalid_argument on a layout mismatch.
  void merge(const Histogram& other);
  bool operator==(const Histogram&) const = default;
};

// The one-way-delay and stall layouts, shared by MetricsRegistry's owd_ms /
// stall_ms histograms and the fleet's contention splits, so a split stays
// comparable to the merged total.
[[nodiscard]] Histogram make_owd_histogram(std::string name);
[[nodiscard]] Histogram make_stall_histogram(std::string name);

struct MetricsSummary {
  std::vector<Counter> counters;      // nonzero only, component-major order
  std::vector<Histogram> histograms;  // fixed set, always present
  bool operator==(const MetricsSummary&) const = default;
};

// JSON field lists (json/binder.hpp), shared by the session report's obs
// block and the fleet report.
template <class IO>
void fields(IO& io, Counter& c) {
  io.field("name", c.name);
  io.field("value", c.value);
}

template <class IO>
void fields(IO& io, Histogram& h) {
  io.field("name", h.name);
  io.field("edges", h.edges);
  io.field("counts", h.counts);
  io.field("total", h.total);
}

template <class IO>
void fields(IO& io, MetricsSummary& m) {
  io.field("counters", m.counters);
  io.field("histograms", m.histograms);
}

class MetricsRegistry final : public EventSink {
 public:
  MetricsRegistry();

  void on_event(const Event& e) override;
  // Counts everything: counters are cheap and the per-packet kinds are
  // exactly what the rate histograms need.
  [[nodiscard]] std::uint64_t interest_mask() const override { return kAllKinds; }

  [[nodiscard]] std::uint64_t count(Component c, EventKind k) const {
    return counts_[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
  }
  [[nodiscard]] MetricsSummary summary() const;

  // Fold another registry into this one: counters and histogram buckets add
  // element-wise. The layouts are fixed at compile time, so merging is
  // total, commutative and associative — fleet shards merge in shard-index
  // order and the result is independent of which worker filled which shard.
  void merge(const MetricsRegistry& other);

 private:
  std::array<std::array<std::uint64_t, kEventKindCount>, kComponentCount>
      counts_{};
  Histogram het_ms_;
  Histogram owd_ms_;
  Histogram stall_ms_;
  Histogram queue_kbytes_;
  Histogram target_rate_mbps_;
};

}  // namespace rpv::obs
