// rpv::sat — LEO satellite path model.
//
// Models the third, orthogonal-failure-mode link of 3-way multi-connectivity:
// a Starlink-class LEO bearer with high capacity, a fixed
// ~27 ms propagation floor plus per-packet jitter, deterministic
// satellite-pass handovers on a ~15 s cadence (each a short interruption,
// the constellation reconfiguration the "Vertical Look" measurements show),
// and an obstruction / rain-fade outage process. All stochastic structure —
// pass interruption lengths, outage window placement — is pre-sampled at
// start() from the link's own forked Rng in one fixed order, the same
// discipline as fault::FaultSchedule, so a run is byte-identical for any
// --jobs value and the outage windows can be exported for stall attribution.
//
// The link implements bond::BondablePath natively: packets serialize through
// a busy-until queue per direction, ride the propagation floor + jitter, and
// are dropped (with the loss callback fired) when the bearer is down at send
// time or the delivery would land inside a hard outage or pass interruption.
#pragma once

#include <cstdint>
#include <vector>

#include "bond/bondable_path.hpp"
#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rpv::sat {

struct SatelliteLinkConfig {
  // Bearer capacity, shared by both directions (each direction serializes
  // against its own busy-until horizon at the full rate, like the cellular
  // model's independent up/down paths).
  double capacity_mbps = 40.0;
  // One-way propagation + gateway floor (LEO bent-pipe ~25-30 ms).
  sim::Duration base_owd = sim::Duration::millis(27);
  // Per-packet delivery jitter sigma (half-normal, added to the floor).
  sim::Duration jitter = sim::Duration::millis(3);
  // Residual per-packet loss when the bearer is up.
  double loss_probability = 2e-4;

  // Satellite-pass handovers: deterministic cadence, sampled interruption.
  sim::Duration pass_interval = sim::Duration::seconds(15.0);
  sim::Duration pass_interruption = sim::Duration::millis(150);
  sim::Duration pass_interruption_jitter = sim::Duration::millis(60);

  // Obstruction / rain-fade outage process: exponential gaps and durations.
  sim::Duration outage_mean_gap = sim::Duration::seconds(45.0);
  sim::Duration outage_mean_duration = sim::Duration::seconds(2.0);
  // Fraction of outages that are hard obstructions (bearer down); the rest
  // are rain fades (capacity multiplied by rain_fade_residual, bearer up).
  double obstruction_fraction = 0.7;
  double rain_fade_residual = 0.25;
};

// One pre-sampled outage window, exported for stall attribution.
struct SatOutageWindow {
  sim::TimePoint start;
  sim::TimePoint end;
  bool hard = true;  // true = obstruction (down), false = rain fade
  double residual = 0.0;  // capacity multiplier while active
};

// One pre-sampled satellite-pass handover.
struct SatPassWindow {
  sim::TimePoint start;
  sim::TimePoint end;  // start + sampled interruption
};

class SatelliteLink final : public bond::BondablePath {
 public:
  SatelliteLink(sim::Simulator& simulator, SatelliteLinkConfig cfg,
                sim::Rng rng);

  // Pre-sample passes and outages over [now, now + horizon] and schedule
  // their obs events. Call once, before the first packet.
  void start(sim::Duration horizon);

  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  // --- bond::BondablePath ---
  [[nodiscard]] bond::PathKind kind() const override {
    return bond::PathKind::kSatellite;
  }
  void send_uplink(net::Packet p, DeliverFn deliver) override;
  void send_downlink(net::Packet p, DeliverFn deliver) override;
  void set_loss_callback(LossFn fn) override { on_loss_ = std::move(fn); }
  [[nodiscard]] bool link_down() const override;
  [[nodiscard]] double current_capacity_mbps() const override;
  [[nodiscard]] double queuing_delay_ms() const override;
  [[nodiscard]] double base_latency_ms() const override {
    return cfg_.base_owd.ms();
  }

  // --- Report inputs ---
  [[nodiscard]] std::uint64_t pass_handovers() const { return pass_handovers_; }
  [[nodiscard]] std::uint64_t obstructions() const { return obstructions_; }
  [[nodiscard]] double outage_ms() const { return outage_ms_; }
  [[nodiscard]] std::uint64_t radio_losses() const { return radio_losses_; }
  [[nodiscard]] const std::vector<SatOutageWindow>& outage_windows() const {
    return outages_;
  }
  [[nodiscard]] const std::vector<SatPassWindow>& pass_windows() const {
    return passes_;
  }
  // True if `t` falls inside any hard outage or pass interruption (the
  // windows a satellite-attributed stall overlaps).
  [[nodiscard]] bool in_unavailable_window(sim::TimePoint t) const;

 private:
  void send(net::Packet p, DeliverFn deliver, bool uplink);
  void lose(const net::Packet& p);
  // Capacity multiplier in effect at `t` (0 while hard-down).
  [[nodiscard]] double capacity_multiplier(sim::TimePoint t) const;

  sim::Simulator& sim_;
  SatelliteLinkConfig cfg_;
  sim::Rng rng_;
  obs::EventBus* bus_ = nullptr;
  LossFn on_loss_;
  bool started_ = false;

  std::vector<SatPassWindow> passes_;
  std::vector<SatOutageWindow> outages_;

  sim::TimePoint busy_until_up_;
  sim::TimePoint busy_until_down_;
  sim::TimePoint last_up_delivery_;    // in-order delivery per direction
  sim::TimePoint last_down_delivery_;

  std::uint64_t pass_handovers_ = 0;
  std::uint64_t obstructions_ = 0;
  double outage_ms_ = 0.0;
  std::uint64_t radio_losses_ = 0;
};

}  // namespace rpv::sat
