#include "bond/link_manager.hpp"

#include <algorithm>
#include <limits>

#include "obs/event.hpp"
#include "sim/validate.hpp"

namespace rpv::bond {
namespace {

// kPathSwitch reason codes (mirrored in obs::describe()).
constexpr std::uint8_t kReasonPathDown = 0;
constexpr std::uint8_t kReasonPredictedHo = 1;
constexpr std::uint8_t kReasonFasterPath = 2;
constexpr std::uint8_t kReasonProbationEnd = 3;

}  // namespace

LinkManager::LinkManager(sim::Simulator& simulator, LinkManagerConfig cfg)
    : sim_{simulator}, cfg_{cfg} {
  rpv::validate(cfg_.loss_alpha > 0.0 && cfg_.loss_alpha <= 1.0,
                "LinkManager: loss_alpha must be in (0, 1]");
}

int LinkManager::add_path(cellular::CellularLink* link,
                          predict::ProactiveAdapter* adapter) {
  rpv::validate(link != nullptr, "LinkManager: link must not be null");
  owned_adapters_.push_back(std::make_unique<CellularPathAdapter>(link));
  PathState st;
  st.path = owned_adapters_.back().get();
  st.adapter = adapter;
  paths_.push_back(st);
  return static_cast<int>(paths_.size()) - 1;
}

int LinkManager::add_path(BondablePath* path) {
  rpv::validate(path != nullptr, "LinkManager: path must not be null");
  PathState st;
  st.path = path;
  paths_.push_back(st);
  return static_cast<int>(paths_.size()) - 1;
}

void LinkManager::refresh() {
  const auto now = sim_.now();
  for (auto& p : paths_) {
    const bool down = p.path->link_down();
    if (down && !p.down) {
      // Freshly failed: any probation credit is void.
      p.in_probation = false;
    } else if (!down && p.down) {
      // Recovered: hold it out of the candidate set until it stays up.
      p.in_probation = true;
      p.probation_until = now + cfg_.probation;
    }
    p.down = down;
    if (p.in_probation && now >= p.probation_until) {
      p.in_probation = false;
      p.just_readmitted = true;
    }
    const bool ho_flag = p.adapter != nullptr && p.adapter->proactive() &&
                         p.adapter->ho_imminent(now);
    if (ho_flag && !p.ho_flagged && p.adapter != nullptr) {
      // Count the predictive vacate once per armed window.
      p.adapter->note_predictive_switch();
    }
    p.ho_flagged = ho_flag;
  }

  // Candidate set: healthy paths not under predicted-HO vacate; degrade to
  // healthy-but-flagged, then to merely-up-including-probation, then to
  // everything (packets sent into a dead radio are dropped there — honest
  // accounting, no silent stall).
  candidates_.clear();
  for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
    const auto& p = paths_[static_cast<std::size_t>(i)];
    if (!p.down && !p.in_probation && !p.ho_flagged) candidates_.push_back(i);
  }
  if (candidates_.empty()) {
    for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
      const auto& p = paths_[static_cast<std::size_t>(i)];
      if (!p.down && !p.in_probation) candidates_.push_back(i);
    }
  }
  if (candidates_.empty()) {
    for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
      if (!paths_[static_cast<std::size_t>(i)].down) candidates_.push_back(i);
    }
  }
  if (candidates_.empty()) {
    for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
      candidates_.push_back(i);
    }
  }
}

int LinkManager::least_queued(const std::vector<int>& candidates) const {
  // "Queued" is really effective latency: standing queue plus the path's
  // propagation floor, so a LEO path only wins once cellular queues exceed
  // its ~27 ms floor. Cellular floors are 0 — cellular-only rankings are
  // unchanged.
  int best = candidates.front();
  double best_q = std::numeric_limits<double>::infinity();
  for (const int i : candidates) {
    const double q = effective_latency_ms(paths_[static_cast<std::size_t>(i)]);
    if (q < best_q) {
      best_q = q;
      best = i;
    }
  }
  return best;
}

int LinkManager::spray_pick(const std::vector<int>& candidates) {
  if (candidates.size() == 1) return candidates.front();
  // Deficit-style weighted round-robin on current capacity: every pick adds
  // each candidate's capacity share to its credit and charges the winner one
  // full packet. Deterministic, and the long-run split tracks the capacity
  // ratio even as it moves.
  double total = 0.0;
  for (const int i : candidates) {
    total += std::max(
        paths_[static_cast<std::size_t>(i)].path->current_capacity_mbps(),
        0.01);
  }
  int best = candidates.front();
  double best_credit = -std::numeric_limits<double>::infinity();
  for (const int i : candidates) {
    auto& p = paths_[static_cast<std::size_t>(i)];
    p.credit +=
        std::max(p.path->current_capacity_mbps(), 0.01) / std::max(total, 0.01);
    if (p.credit > best_credit) {
      best_credit = p.credit;
      best = i;
    }
  }
  paths_[static_cast<std::size_t>(best)].credit -= 1.0;
  return best;
}

void LinkManager::anchor_video(int to) {
  if (to != anchor_) {
    const auto& cur = paths_[static_cast<std::size_t>(anchor_)];
    const auto& dst = paths_[static_cast<std::size_t>(to)];
    const std::uint8_t reason = cur.down              ? kReasonPathDown
                                : cur.ho_flagged      ? kReasonPredictedHo
                                : dst.just_readmitted ? kReasonProbationEnd
                                                      : kReasonFasterPath;
    ++path_switches_;
    if (bus_ != nullptr && bus_->wants(obs::EventKind::kPathSwitch)) {
      bus_->publish(obs::Component::kBond, obs::EventKind::kPathSwitch,
                    sim_.now(),
                    obs::PathSwitchPayload{
                        static_cast<std::uint8_t>(anchor_),
                        static_cast<std::uint8_t>(to), reason,
                        static_cast<std::uint8_t>(TrafficClass::kVideo)});
    }
    anchor_ = to;
  }
  for (auto& st : paths_) st.just_readmitted = false;
}

RouteDecision LinkManager::route_video(const std::vector<int>& candidates,
                                       const net::Packet& p) {
  switch (cfg_.policy) {
    case Policy::kFailover:
    case Policy::kDuplicate: {
      // Video rides the lowest-index candidate; kDuplicate copies it onto
      // the next one.
      anchor_video(candidates.front());
      const bool copy =
          cfg_.policy == Policy::kDuplicate && candidates.size() > 1;
      return {anchor_, copy ? candidates[1] : -1};
    }
    case Policy::kLowLatency: {
      // Anchor everything on the fastest eligible path; re-anchor only when
      // the anchor left the candidate set or another path is decisively
      // faster.
      const bool anchor_ok =
          std::find(candidates.begin(), candidates.end(), anchor_) !=
          candidates.end();
      const int best = least_queued(candidates);
      const double gain =
          effective_latency_ms(paths_[static_cast<std::size_t>(anchor_)]) -
          effective_latency_ms(paths_[static_cast<std::size_t>(best)]);
      anchor_video(!anchor_ok || gain > cfg_.switch_hysteresis.ms() ? best
                                                                    : anchor_);
      return {anchor_, -1};
    }
    case Policy::kBalanced:
    case Policy::kHighReliability:
      break;
  }

  // Capacity-weighted spray. The anchor tracks the highest-capacity candidate
  // (the reference point for preemption and the forecast input).
  int heavy = candidates.front();
  double heavy_cap = -1.0;
  for (const int i : candidates) {
    const double c =
        paths_[static_cast<std::size_t>(i)].path->current_capacity_mbps();
    if (c > heavy_cap) {
      heavy_cap = c;
      heavy = i;
    }
  }
  anchor_video(heavy);

  const int primary = spray_pick(candidates);
  int dup = -1;
  if (cfg_.policy == Policy::kBalanced && p.keyframe &&
      p.kind == net::PacketKind::kRtpVideo && candidates.size() > 1) {
    // Selective duplication: keyframe loss costs a PLI round trip plus a
    // whole re-encoded IDR, so those packets ride two paths.
    others_.clear();
    for (const int i : candidates) {
      if (i != primary) others_.push_back(i);
    }
    dup = least_queued(others_);
  }
  return {primary, dup};
}

RouteDecision LinkManager::route_priority(TrafficClass cls,
                                          const std::vector<int>& candidates) {
  // C2 and telemetry never wait behind a video-bloated queue: they take the
  // least-queued eligible path, publishing kClassPreempt when that diverts
  // them away from a congested video anchor.
  const int primary = least_queued(candidates);
  const auto& anchor = paths_[static_cast<std::size_t>(anchor_)];
  const double anchor_q = anchor.path->queuing_delay_ms();
  const bool diverting =
      primary != anchor_ && anchor_q > cfg_.preempt_queue.ms();
  auto& flag = diverted_[static_cast<std::size_t>(cls)];
  if (diverting && !flag) {
    ++class_preemptions_;
    publish_preempt(cls, anchor_, primary, anchor_q);
  }
  flag = diverting;

  int dup = -1;
  if (cls == TrafficClass::kC2 &&
      (cfg_.policy == Policy::kHighReliability ||
       cfg_.policy == Policy::kBalanced)) {
    // C2 is the safety-critical stream: duplicate it across operators (the
    // reliability policies pay the few extra bytes; kLowLatency does not).
    others_.clear();
    for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
      if (i != primary && !paths_[static_cast<std::size_t>(i)].down) {
        others_.push_back(i);
      }
    }
    if (!others_.empty()) dup = least_queued(others_);
  }
  return {primary, dup};
}

RouteDecision LinkManager::route_among(TrafficClass cls, const net::Packet& p) {
  rpv::validate(!paths_.empty(), "LinkManager: no paths registered");

  refresh();
  if (cls == TrafficClass::kVideo) return route_video(candidates_, p);
  if (cfg_.policy == Policy::kDuplicate) {
    // Every class rides the two lowest-index candidates.
    return {candidates_.front(), candidates_.size() > 1 ? candidates_[1] : -1};
  }
  return route_priority(cls, candidates_);
}

void LinkManager::note_lost(int path) {
  auto& p = paths_[static_cast<std::size_t>(path)];
  ++p.lost_packets;
  p.loss_ewma += cfg_.loss_alpha * (1.0 - p.loss_ewma);
}

PathCounters LinkManager::path_counters(int i) const {
  const auto& p = paths_[static_cast<std::size_t>(i)];
  PathCounters c;
  c.kind = p.path->kind();
  c.sent_packets = p.sent_packets;
  c.lost_packets = p.lost_packets;
  c.delivered_packets = p.delivered_packets;
  c.airtime_bytes = p.airtime_bytes;
  return c;
}

double LinkManager::max_loss_ewma() const {
  double worst = 0.0;
  for (const auto& p : paths_) {
    if (!p.down) worst = std::max(worst, p.loss_ewma);
  }
  return worst;
}

double LinkManager::best_capacity_mbps() const {
  double best = 0.0;
  for (const auto& p : paths_) {
    if (!p.down) best = std::max(best, p.path->current_capacity_mbps());
  }
  return best;
}

bool LinkManager::any_ho_armed() const {
  const auto now = sim_.now();
  for (const auto& p : paths_) {
    if (p.adapter != nullptr && p.adapter->ho_predictor().armed(now)) {
      return true;
    }
  }
  return false;
}

double LinkManager::anchor_forecast_mbps() const {
  const auto& p = paths_[static_cast<std::size_t>(anchor_)];
  if (p.adapter == nullptr || !p.adapter->forecast_ready()) return -1.0;
  return p.adapter->forecast_capacity_mbps();
}

void LinkManager::publish_preempt(TrafficClass cls, int from, int to,
                                  double queue_ms) {
  if (bus_ == nullptr || !bus_->wants(obs::EventKind::kClassPreempt)) return;
  bus_->publish(obs::Component::kBond, obs::EventKind::kClassPreempt, sim_.now(),
                obs::PreemptPayload{static_cast<std::uint8_t>(cls),
                                    static_cast<std::uint8_t>(from),
                                    static_cast<std::uint8_t>(to), queue_ms});
}

}  // namespace rpv::bond
