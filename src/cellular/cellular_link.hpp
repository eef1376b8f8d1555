// The end-to-end cellular access link of one UE (the UAV's LTE dongle).
//
// Composes the radio model, handover controller, deep-buffered uplink queue
// and residual loss process, and drives them from the UE trajectory inside
// the discrete-event simulator. Exposes an asynchronous send interface for
// uplink (media) and downlink (feedback) packets plus the traces the
// measurement analyses consume: handover log, capacity and queue series.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "cellular/base_station.hpp"
#include "cellular/cell_load.hpp"
#include "cellular/handover.hpp"
#include "cellular/link_queue.hpp"
#include "cellular/loss_model.hpp"
#include "cellular/radio_model.hpp"
#include "geo/trajectory.hpp"
#include "metrics/cdf.hpp"
#include "net/packet.hpp"
#include "obs/event_sink.hpp"
#include "sim/simulator.hpp"

namespace rpv::cellular {

struct CellularLinkConfig {
  RadioConfig radio;
  HandoverConfig handover;
  HetConfig het;
  LinkQueueConfig queue;
  LossConfig loss;

  // Radio access latency (scheduling grant, HARQ round trips) added after
  // serialization, per direction. Jitter values are the sigma of a
  // half-normal delay added per packet.
  sim::Duration uplink_access_latency = sim::Duration::millis(15);
  sim::Duration uplink_access_jitter = sim::Duration::millis(3);
  sim::Duration downlink_latency = sim::Duration::millis(8);
  sim::Duration downlink_jitter = sim::Duration::millis(1);
  double downlink_loss = 1e-5;
};

class CellularLink {
 public:
  using DeliverFn = std::function<void(net::Packet)>;
  using LossFn = std::function<void(const net::Packet&)>;

  CellularLink(sim::Simulator& simulator, CellLayout layout,
               CellularLinkConfig cfg, const geo::Trajectory* trajectory,
               sim::Rng rng);

  // Begin the RRC measurement loop; runs until the trajectory ends.
  void start();

  // Uplink media path: deep queue -> serialization -> loss -> access latency.
  void send_uplink(net::Packet p, DeliverFn deliver);
  // Downlink feedback path: lightly loaded, but shares HO interruptions.
  void send_downlink(net::Packet p, DeliverFn deliver);

  // Notification for every packet lost on the radio (media loss accounting).
  void set_loss_callback(LossFn fn) { on_loss_ = std::move(fn); }

  // Attach a shared-cell load provider (borrowed; must outlive the link).
  // Every capacity refresh then scales the radio capacity by the provider's
  // PRB share for the serving cell. Without one the link models a private,
  // unloaded cell — today's single-UAV behavior, bit for bit.
  void set_load_provider(const CellLoadProvider* provider) {
    load_ = provider;
    refresh_capacity();
  }

  // Attach the session's event bus. The link publishes kLinkMeasurement,
  // kHandoverStart/End, kRlf, kQueueDepth and kPacketLost; the uplink queue
  // (forwarded here) publishes its enqueue/drop events. Measurement consumers
  // (rpv::predict, rpv::bond) subscribe an EventSink with the
  // kLinkMeasurement bit.
  void attach_observer(obs::EventBus* bus);

  // --- Fault-injection hooks (driven by fault::FaultInjector) ---
  // Radio link failure: T310 expiry, cell re-selection, RRC connection
  // re-establishment. Interrupts the bearer for the sampled outage (which is
  // returned), logs it as a handover and publishes a kRlf event.
  sim::Duration inject_rlf();
  // Every downlink (feedback) packet sent inside the window is lost.
  void inject_downlink_blackout(sim::Duration d);
  // Every uplink packet finishing serialization inside the window is lost.
  void inject_uplink_blackout(sim::Duration d);
  // Deep fade: capacity multiplied by `residual` (floored away from zero so
  // the in-service packet still finishes) for the window.
  void inject_capacity_collapse(sim::Duration d, double residual);

  // True while the uplink bearer cannot deliver (handover/RLF interruption
  // or an uplink blackout) — the failover signal for multipath sessions.
  [[nodiscard]] bool link_down() const;
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }

  [[nodiscard]] double current_capacity_mbps() const { return capacity_mbps_; }
  [[nodiscard]] std::uint32_t serving_cell() const { return ho_->serving_cell(); }
  [[nodiscard]] bool in_handover() const { return ho_->in_handover(sim_.now()); }
  [[nodiscard]] double queuing_delay_ms() const {
    return queue_->queuing_delay_sec() * 1e3;
  }
  [[nodiscard]] std::size_t queued_bytes() const { return queue_->queued_bytes(); }

  [[nodiscard]] const metrics::HandoverLog& handover_log() const { return ho_->log(); }
  // Uplink capacity at every measurement tick, as a distribution.
  [[nodiscard]] const metrics::Cdf& capacity_mbps() const { return capacity_cdf_; }
  [[nodiscard]] const LossModel& loss_model() const { return loss_; }
  [[nodiscard]] std::uint64_t buffer_drops() const { return queue_->drops(); }
  [[nodiscard]] std::size_t distinct_cells_seen() const;
  [[nodiscard]] sim::Duration observed_duration() const {
    return trajectory_->duration();
  }

  // How airborne the UE currently is, in [0,1] (0 = ground level).
  [[nodiscard]] double airborne_fraction() const;

 private:
  void measurement_tick();
  void refresh_capacity();
  void publish_packet_lost(const net::Packet& p);

  sim::Simulator& sim_;
  CellLayout layout_;
  CellularLinkConfig cfg_;
  const geo::Trajectory* trajectory_;
  sim::Rng rng_;
  std::unique_ptr<RadioModel> radio_;
  std::unique_ptr<HandoverController> ho_;
  std::unique_ptr<LinkQueue> queue_;
  LossModel loss_;
  LossFn on_loss_;
  obs::EventBus* bus_ = nullptr;
  const CellLoadProvider* load_ = nullptr;
  double capacity_mbps_ = 10.0;
  sim::TimePoint last_uplink_delivery_;  // enforce in-order delivery (RLC)

  // Fault-injection state ("until" at the origin means inactive).
  sim::TimePoint uplink_blackout_until_;
  sim::TimePoint downlink_blackout_until_;
  sim::TimePoint collapse_until_;
  double collapse_residual_ = 1.0;
  std::uint64_t fault_drops_ = 0;
  metrics::Cdf capacity_cdf_;
  std::vector<std::uint32_t> cells_seen_;
};

}  // namespace rpv::cellular
