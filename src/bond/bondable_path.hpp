// BondablePath — the common interface every bonded transport implements.
//
// The LinkManager originally scheduled across exactly two cellular operator
// links; 3-way multi-connectivity (cellular + cellular + LEO satellite or
// aerial mesh) needs one abstraction the scheduler can rank
// heterogeneous paths through. A path exposes exactly what the routing
// policies consume: liveness, capacity, standing queue delay, and a fixed
// propagation floor — plus the async send interface the session drives.
//
// The cellular adapter forwards verbatim (zero behavioural change, so the
// 2-path policies replicate byte-identically); sat::SatelliteLink and
// sat::MeshHopLink implement the interface natively.
#pragma once

#include <functional>
#include <string_view>

#include "cellular/cellular_link.hpp"
#include "net/packet.hpp"

namespace rpv::bond {

enum class PathKind : std::uint8_t { kCellular, kSatellite, kMesh };

[[nodiscard]] constexpr std::string_view path_kind_name(PathKind k) {
  switch (k) {
    case PathKind::kCellular: return "cellular";
    case PathKind::kSatellite: return "satellite";
    case PathKind::kMesh: return "mesh";
  }
  return "?";
}

class BondablePath {
 public:
  using DeliverFn = std::function<void(net::Packet)>;
  using LossFn = std::function<void(const net::Packet&)>;

  virtual ~BondablePath() = default;

  [[nodiscard]] virtual PathKind kind() const = 0;

  // Async send interfaces, matching cellular::CellularLink's contract:
  // `deliver` fires when (and only if) the packet survives the path.
  virtual void send_uplink(net::Packet p, DeliverFn deliver) = 0;
  virtual void send_downlink(net::Packet p, DeliverFn deliver) = 0;

  // Notification for every packet the path loses (loss-EWMA accounting).
  virtual void set_loss_callback(LossFn fn) = 0;

  // True while the path cannot deliver (HO interruption, RLF, satellite
  // pass switch, obstruction) — the failover signal.
  [[nodiscard]] virtual bool link_down() const = 0;
  [[nodiscard]] virtual double current_capacity_mbps() const = 0;
  // Standing queue delay of packets already accepted, in ms.
  [[nodiscard]] virtual double queuing_delay_ms() const = 0;
  // Fixed propagation/access floor beyond the cellular baseline, in ms.
  // Cellular returns 0 (its access latency is modeled inside the link), so
  // every latency ranking over cellular-only path sets is unchanged; a LEO
  // path reports its ~27 ms floor and loses C2 ranking ties accordingly.
  [[nodiscard]] virtual double base_latency_ms() const { return 0.0; }
};

// Exposes a cellular operator link as a BondablePath, forwarding every call
// verbatim.
class CellularPathAdapter final : public BondablePath {
 public:
  explicit CellularPathAdapter(cellular::CellularLink* link) : link_{link} {}

  [[nodiscard]] PathKind kind() const override { return PathKind::kCellular; }
  void send_uplink(net::Packet p, DeliverFn deliver) override {
    link_->send_uplink(std::move(p), std::move(deliver));
  }
  void send_downlink(net::Packet p, DeliverFn deliver) override {
    link_->send_downlink(std::move(p), std::move(deliver));
  }
  void set_loss_callback(LossFn fn) override {
    link_->set_loss_callback(std::move(fn));
  }
  [[nodiscard]] bool link_down() const override { return link_->link_down(); }
  [[nodiscard]] double current_capacity_mbps() const override {
    return link_->current_capacity_mbps();
  }
  [[nodiscard]] double queuing_delay_ms() const override {
    return link_->queuing_delay_ms();
  }

  [[nodiscard]] cellular::CellularLink& link() { return *link_; }

 private:
  cellular::CellularLink* link_;
};

}  // namespace rpv::bond
