#include "cellular/cellular_link.hpp"

#include <algorithm>
#include <cmath>

#include "net/packet_events.hpp"

namespace rpv::cellular {

CellularLink::CellularLink(sim::Simulator& simulator, CellLayout layout,
                           CellularLinkConfig cfg,
                           const geo::Trajectory* trajectory, sim::Rng rng)
    : sim_{simulator},
      layout_{std::move(layout)},
      cfg_{cfg},
      trajectory_{trajectory},
      rng_{rng},
      loss_{cfg.loss, rng.fork()} {
  radio_ = std::make_unique<RadioModel>(cfg_.radio, layout_, rng_.fork());
  // Attach to the strongest cell at the trajectory start.
  radio_->update(trajectory_->position(trajectory_->start()));
  const auto initial = radio_->measurements().front().cell_id;
  ho_ = std::make_unique<HandoverController>(
      cfg_.handover, HetModel{cfg_.het, rng_.fork()}, initial);
  cells_seen_.push_back(initial);
  queue_ = std::make_unique<LinkQueue>(
      sim_, cfg_.queue, [this] { return capacity_mbps_ * 1e6; },
      [this](net::Packet p, LinkQueue::DoneFn deliver) {
        // Serialization finished: apply radio loss, then access latency.
        if (!deliver) return;
        if (sim_.now() < uplink_blackout_until_) {
          ++fault_drops_;
          publish_packet_lost(p);
          if (on_loss_) on_loss_(p);
          return;
        }
        const double altitude = trajectory_->position(sim_.now()).z;
        // Stress kicks in above the standing queue a delay-based CC would
        // tolerate (~80 ms) and saturates at bufferbloat levels (~300 ms).
        const double qd_ms = queue_->queuing_delay_sec() * 1e3;
        const double stress = std::clamp((qd_ms - 80.0) / 220.0, 0.0, 1.0);
        if (loss_.drops_packet(altitude, stress)) {
          publish_packet_lost(p);
          if (on_loss_) on_loss_(p);
          return;
        }
        const auto jitter = sim::Duration::seconds(
            std::abs(rng_.normal(0.0, cfg_.uplink_access_jitter.ms())) / 1e3);
        // RLC acknowledged mode delivers in order: jitter may stretch the
        // delay but never lets a packet overtake its predecessor.
        auto at = sim_.now() + cfg_.uplink_access_latency + jitter;
        if (at <= last_uplink_delivery_) {
          at = last_uplink_delivery_ + sim::Duration::micros(1);
        }
        last_uplink_delivery_ = at;
        sim_.schedule_at(at, [this, p, deliver = std::move(deliver)]() mutable {
          p.received = sim_.now();
          deliver(std::move(p));
        });
      },
      [this](const net::Packet& p) {
        // Buffer overflow drop.
        publish_packet_lost(p);
        if (on_loss_) on_loss_(p);
      });
  refresh_capacity();
}

void CellularLink::attach_observer(obs::EventBus* bus) {
  bus_ = bus;
  queue_->attach_observer(bus);
}

void CellularLink::publish_packet_lost(const net::Packet& p) {
  if (bus_ && bus_->wants(obs::EventKind::kPacketLost)) {
    bus_->publish(obs::Component::kCellular, obs::EventKind::kPacketLost,
                  sim_.now(), net::packet_payload(p));
  }
}

void CellularLink::start() {
  measurement_tick();
}

double CellularLink::airborne_fraction() const {
  const double z = trajectory_->position(sim_.now()).z;
  return 1.0 - std::exp(-std::max(z, 0.0) / cfg_.radio.los_altitude_scale_m);
}

void CellularLink::refresh_capacity() {
  const bool interrupted =
      !cfg_.handover.make_before_break && ho_->in_handover(sim_.now());
  const double factor =
      interrupted ? 0.0 : ho_->capacity_factor(sim_.now());
  const double share = load_ ? load_->prb_share(ho_->serving_cell()) : 1.0;
  capacity_mbps_ =
      radio_->capacity_mbps(ho_->serving_cell(), share) * std::max(factor, 0.02);
  if (sim_.now() < collapse_until_) capacity_mbps_ *= collapse_residual_;
}

void CellularLink::measurement_tick() {
  const auto now = sim_.now();
  radio_->update(trajectory_->position(now));
  bool ho_triggered = false;
  sim::Duration ho_het = sim::Duration::zero();
  if (const auto het = ho_->on_measurement(now, radio_->measurements(),
                                           airborne_fraction())) {
    ho_triggered = true;
    ho_het = *het;
    const auto& ev = ho_->log().events().back();
    // RRCConnectionReconfigurationComplete closes the handover on the event
    // stream. It is scheduled whether or not anyone observes, so observing a
    // run schedules no extra engine events.
    sim_.schedule_in(*het, [this, source = ev.source_cell,
                            target = ev.target_cell, het_us = ho_het.us()] {
      if (bus_ && bus_->wants(obs::EventKind::kHandoverEnd)) {
        bus_->publish(obs::Component::kCellular, obs::EventKind::kHandoverEnd,
                      sim_.now(),
                      obs::HandoverPayload{source, target, het_us});
      }
    });
    if (bus_ && bus_->wants(obs::EventKind::kHandoverStart)) {
      bus_->publish(obs::Component::kCellular, obs::EventKind::kHandoverStart,
                    now,
                    obs::HandoverPayload{ev.source_cell, ev.target_cell,
                                         ho_het.us()});
    }
    // Handover triggered. With break-before-make the bearer is interrupted
    // for the execution time; DAPS keeps transmitting on the source stack.
    if (!cfg_.handover.make_before_break) {
      queue_->pause();
      sim_.schedule_in(*het, [this] {
        queue_->resume();
        refresh_capacity();
      });
    }
    const auto serving = ho_->serving_cell();
    if (std::find(cells_seen_.begin(), cells_seen_.end(), serving) ==
        cells_seen_.end()) {
      cells_seen_.push_back(serving);
    }
  }
  refresh_capacity();
  capacity_cdf_.add(capacity_mbps_);

  if (bus_ != nullptr && bus_->wants(obs::EventKind::kLinkMeasurement)) {
    obs::MeasurementPayload m;
    m.serving_cell = ho_->serving_cell();
    m.serving_rsrp_dbm = radio_->rsrp_of(m.serving_cell);
    for (const auto& cell : radio_->measurements()) {
      if (cell.cell_id != m.serving_cell) {
        m.neighbor_cell = cell.cell_id;
        m.neighbor_rsrp_dbm = cell.rsrp_dbm;
        break;  // measurements are strongest-first
      }
    }
    m.capacity_mbps = capacity_mbps_;
    m.queuing_delay_ms = queuing_delay_ms();
    m.in_handover = ho_->in_handover(now);
    m.ho_triggered = ho_triggered;
    m.het_us = ho_het.us();
    bus_->publish(obs::Component::kCellular, obs::EventKind::kLinkMeasurement,
                  now, m);
  }
  if (bus_ && bus_->wants(obs::EventKind::kQueueDepth)) {
    // Low-rate depth snapshot riding the RRC tick; the per-packet enqueue
    // stream stays opt-in.
    bus_->publish(obs::Component::kLinkQueue, obs::EventKind::kQueueDepth, now,
                  obs::QueuePayload{
                      0, 0, static_cast<std::uint64_t>(queue_->queued_bytes()),
                      static_cast<std::uint32_t>(queue_->queued_packets()), 0});
  }

  if (now < trajectory_->end()) {
    sim_.schedule_in(cfg_.handover.measurement_interval,
                     [this] { measurement_tick(); });
  }
}

void CellularLink::send_uplink(net::Packet p, DeliverFn deliver) {
  p.enqueued = sim_.now();
  queue_->enqueue(std::move(p), std::move(deliver));
}

void CellularLink::send_downlink(net::Packet p, DeliverFn deliver) {
  if (sim_.now() < downlink_blackout_until_) {
    ++fault_drops_;
    return;
  }
  if (rng_.chance(cfg_.downlink_loss)) return;
  const auto jitter = sim::Duration::seconds(
      std::abs(rng_.normal(0.0, cfg_.downlink_jitter.ms())) / 1e3);
  sim::TimePoint at = sim_.now() + cfg_.downlink_latency + jitter;
  // Downlink shares the radio interruption during handover execution
  // (unless DAPS keeps both stacks active).
  if (!cfg_.handover.make_before_break && ho_->in_handover(at)) {
    at = ho_->handover_end() + jitter;
  }
  sim_.schedule_at(at, [this, p, deliver = std::move(deliver)]() mutable {
    p.received = sim_.now();
    deliver(std::move(p));
  });
}

sim::Duration CellularLink::inject_rlf() {
  const auto now = sim_.now();
  // T310 has expired: re-select the strongest currently measured cell (which
  // may be the serving one) and re-establish the RRC connection.
  radio_->update(trajectory_->position(now));
  const auto& meas = radio_->measurements();
  const std::uint32_t source = ho_->serving_cell();
  const std::uint32_t target =
      meas.empty() ? ho_->serving_cell() : meas.front().cell_id;
  const auto outage = ho_->trigger_rlf(now, airborne_fraction(), target);

  queue_->pause();
  sim_.schedule_in(outage, [this] {
    queue_->resume();
    refresh_capacity();
  });

  if (bus_ && bus_->wants(obs::EventKind::kRlf)) {
    bus_->publish(obs::Component::kCellular, obs::EventKind::kRlf, now,
                  obs::HandoverPayload{source, target, outage.us()});
  }

  if (std::find(cells_seen_.begin(), cells_seen_.end(), target) ==
      cells_seen_.end()) {
    cells_seen_.push_back(target);
  }
  refresh_capacity();
  return outage;
}

void CellularLink::inject_downlink_blackout(sim::Duration d) {
  downlink_blackout_until_ = std::max(downlink_blackout_until_, sim_.now() + d);
}

void CellularLink::inject_uplink_blackout(sim::Duration d) {
  uplink_blackout_until_ = std::max(uplink_blackout_until_, sim_.now() + d);
}

void CellularLink::inject_capacity_collapse(sim::Duration d, double residual) {
  const auto now = sim_.now();
  residual = std::clamp(residual, 1e-3, 1.0);
  if (now < collapse_until_) {
    collapse_residual_ = std::min(collapse_residual_, residual);
  } else {
    collapse_residual_ = residual;
  }
  collapse_until_ = std::max(collapse_until_, now + d);
  refresh_capacity();
  sim_.schedule_at(collapse_until_, [this] { refresh_capacity(); });
}

bool CellularLink::link_down() const {
  return (!cfg_.handover.make_before_break && ho_->in_handover(sim_.now())) ||
         sim_.now() < uplink_blackout_until_;
}

std::size_t CellularLink::distinct_cells_seen() const { return cells_seen_.size(); }

}  // namespace rpv::cellular
