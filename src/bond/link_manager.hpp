// LinkManager — owns the set of paths of a session and decides, per packet,
// which path(s) carry it.
//
// Every session routes through one: a single-path session registers one
// path and route() always answers path 0. With more paths the named policies
// (see policy.hpp) pick from a health-gated candidate set. The manager tracks
// per-path health (radio down/up, loss EWMA, queue depth, capacity), degrades
// gracefully as links fail — a dead path simply leaves the candidate set —
// and re-admits a recovered path only after a probation window so a flapping
// radio cannot drag traffic back and forth. Traffic is scheduled in three
// DSCP-style classes (C2 > telemetry > video): priority classes are diverted
// around a video-congested path, with kClassPreempt published on each
// diversion transition.
//
// Paths are heterogeneous (bond::BondablePath): cellular operator links,
// LEO satellite, aerial mesh. Latency ranking adds each path's fixed
// propagation floor to its standing queue delay, so C2 stays on the lowest-
// latency healthy path (cellular, until its queue exceeds the satellite
// floor) while capacity-weighted video spraying happily includes a
// high-capacity satellite path. Cellular floors are zero.
//
// Everything is deterministic: capacity-weighted spraying uses integer-free
// credit accounting, not randomness, so byte-identical reruns hold.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bond/bondable_path.hpp"
#include "bond/policy.hpp"
#include "cellular/cellular_link.hpp"
#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "predict/proactive_adapter.hpp"
#include "sim/simulator.hpp"

namespace rpv::bond {

struct LinkManagerConfig {
  Policy policy = Policy::kDuplicate;
  // A recovered path carries traffic again only after staying up this long.
  sim::Duration probation = sim::Duration::seconds(1.0);
  // Per-path radio loss EWMA smoothing (feeds the FEC controller).
  double loss_alpha = 0.02;
  // kLowLatency only re-anchors when another path is this much faster.
  sim::Duration switch_hysteresis = sim::Duration::millis(2);
  // C2/telemetry divert around the video anchor once its standing queue
  // exceeds this.
  sim::Duration preempt_queue = sim::Duration::millis(20);
};

// Where to send one packet: the primary path index, plus an optional
// duplicate path (-1 = no duplication).
struct RouteDecision {
  int primary = 0;
  int duplicate = -1;
};

// Per-path outcome counters, exported into the report's path breakdown.
struct PathCounters {
  PathKind kind = PathKind::kCellular;
  std::uint64_t sent_packets = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t airtime_bytes = 0;
};

class LinkManager {
 public:
  LinkManager(sim::Simulator& simulator, LinkManagerConfig cfg);

  // Register one cellular operator link (with its per-operator predictor,
  // may be null); an owned CellularPathAdapter bridges it onto the bonded
  // interface. Returns the path index. Paths are fixed for the session
  // lifetime.
  int add_path(cellular::CellularLink* link, predict::ProactiveAdapter* adapter);
  // Register any bonded path (satellite, mesh, ...). No predictor: only
  // cellular handovers are forecast today.
  int add_path(BondablePath* path);

  // Publish kPathSwitch / kClassPreempt onto the session's event stream.
  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  // Decide the path(s) for one outgoing packet. One registered path always
  // answers {0, -1}; more paths go through the health-gated candidate set.
  // Inline with the accounting below: it runs once per packet, and a
  // single-path session must not pay for the bonded machinery.
  RouteDecision route(TrafficClass cls, const net::Packet& p) {
    if (paths_.size() == 1) return {0, -1};
    return route_among(cls, p);
  }

  // --- Outcome accounting (drives loss EWMAs and airtime) ---
  void note_sent(int path, std::size_t bytes) {
    auto& p = paths_[static_cast<std::size_t>(path)];
    ++p.sent_packets;
    p.airtime_bytes += bytes;
    airtime_bytes_ += bytes;
  }
  void note_lost(int path);  // copy died on the radio
  void note_delivered(int path) {  // copy survived the radio
    auto& p = paths_[static_cast<std::size_t>(path)];
    ++p.delivered_packets;
    p.loss_ewma += cfg_.loss_alpha * (0.0 - p.loss_ewma);
  }

  [[nodiscard]] std::size_t path_count() const { return paths_.size(); }
  [[nodiscard]] BondablePath& path(int i) {
    return *paths_[static_cast<std::size_t>(i)].path;
  }
  [[nodiscard]] PathCounters path_counters(int i) const;
  // Worst per-path loss EWMA among paths currently carrying traffic.
  [[nodiscard]] double max_loss_ewma() const;
  // Capacity of the best currently-usable path (FEC controller input).
  [[nodiscard]] double best_capacity_mbps() const;
  // True while any registered predictor has an armed handover prediction.
  [[nodiscard]] bool any_ho_armed() const;
  // Capacity forecast of the current video anchor path; < 0 if not ready.
  [[nodiscard]] double anchor_forecast_mbps() const;

  // Video-anchor switches (kPathSwitch events), in either direction.
  [[nodiscard]] std::uint64_t path_switches() const { return path_switches_; }
  [[nodiscard]] std::uint64_t class_preemptions() const {
    return class_preemptions_;
  }
  [[nodiscard]] std::uint64_t airtime_bytes() const { return airtime_bytes_; }

 private:
  struct PathState {
    BondablePath* path = nullptr;
    predict::ProactiveAdapter* adapter = nullptr;
    bool down = false;
    bool in_probation = false;
    bool just_readmitted = false;  // left probation since the last route()
    bool ho_flagged = false;       // predictor says vacate this path
    sim::TimePoint probation_until = sim::TimePoint::origin();
    double loss_ewma = 0.0;
    double credit = 0.0;  // weighted-round-robin spray credit
    std::uint64_t sent_packets = 0;
    std::uint64_t lost_packets = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t airtime_bytes = 0;
  };

  // Standing queue delay plus the path's fixed propagation floor: the
  // quantity latency-sensitive ranking compares across heterogeneous paths.
  [[nodiscard]] double effective_latency_ms(const PathState& p) const {
    return p.path->queuing_delay_ms() + p.path->base_latency_ms();
  }

  // Refresh down/probation/ho flags; fills candidates_ with the indices
  // eligible for new traffic (falls back to usable, then to all paths).
  void refresh();
  [[nodiscard]] int least_queued(const std::vector<int>& candidates) const;
  [[nodiscard]] int spray_pick(const std::vector<int>& candidates);
  RouteDecision route_among(TrafficClass cls, const net::Packet& p);
  RouteDecision route_video(const std::vector<int>& candidates,
                            const net::Packet& p);
  RouteDecision route_priority(TrafficClass cls,
                               const std::vector<int>& candidates);
  // Put video on `to`, publishing kPathSwitch (with its reason) on a change.
  void anchor_video(int to);
  void publish_preempt(TrafficClass cls, int from, int to, double queue_ms);

  sim::Simulator& sim_;
  LinkManagerConfig cfg_;
  obs::EventBus* bus_ = nullptr;
  std::vector<PathState> paths_;
  // Adapters created by the cellular add_path overload.
  std::vector<std::unique_ptr<CellularPathAdapter>> owned_adapters_;

  // Per-packet working lists, reused so routing allocates only while they
  // first grow to the path count.
  std::vector<int> candidates_;
  std::vector<int> others_;

  int anchor_ = 0;  // current video path
  // Per-class diversion state (kClassPreempt publishes on transitions only).
  bool diverted_[2] = {false, false};  // indexed by TrafficClass kC2/kTelemetry

  std::uint64_t path_switches_ = 0;
  std::uint64_t class_preemptions_ = 0;
  std::uint64_t airtime_bytes_ = 0;
};

}  // namespace rpv::bond
