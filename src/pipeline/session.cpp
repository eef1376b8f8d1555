#include "pipeline/session.hpp"

#include <algorithm>
#include <utility>

#include "cc/static_rate.hpp"
#include "sim/validate.hpp"

namespace rpv::pipeline {
namespace {

// FEC controller tick cadence: fast enough to react within a loss burst,
// slow enough that the group size is stable across an interleave set.
constexpr sim::Duration kFecTickInterval = sim::Duration::millis(250);

std::vector<cellular::CellLayout> only(cellular::CellLayout layout) {
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(std::move(layout));
  return layouts;
}

// The adaptive FEC ladder of a FEC-backed bonding policy. An explicit base
// group size re-bases the whole ladder. Rungs are floored at group 4 (25%
// parity) — denser parity under sustained loss just overloads the bearer and
// feeds the loss it is trying to repair.
bond::FecControllerConfig bonded_fec(int base_group, bond::Policy policy) {
  bond::FecControllerConfig fc;
  if (base_group > 0) {
    const int floor = std::max(2, std::min(base_group, 4));
    fc.ladder = {base_group, std::max(base_group * 3 / 4, floor),
                 std::max(base_group / 2, floor),
                 std::max(base_group / 4, floor)};
  }
  if (policy == bond::Policy::kHighReliability) {
    // Elevated parity floor: never run fully unprotected.
    fc.ladder[0] = std::min(fc.ladder[0], 12);
  }
  return fc;
}

// Runs `done` for the first surviving copy of a duplicated packet only.
bond::BondablePath::DeliverFn first_copy_only(
    bond::BondablePath::DeliverFn done) {
  return [done = std::move(done),
          first = std::make_shared<bool>(true)](net::Packet q) {
    if (std::exchange(*first, false)) done(std::move(q));
  };
}

}  // namespace

std::string cc_name(CcKind kind) {
  return std::string{kCcNames[static_cast<std::size_t>(kind)]};
}

void apply_cc_settings(SessionConfig& cfg) {
  switch (cfg.cc) {
    case CcKind::kGcc:
      cfg.receiver.feedback = FeedbackKind::kTwcc;
      cfg.sender.discard_queue = sim::Duration::millis(-1);
      break;
    case CcKind::kScream:
      cfg.receiver.feedback = FeedbackKind::kRfc8888;
      cfg.sender.discard_queue = sim::Duration::millis(100);
      break;
    case CcKind::kStatic:
      cfg.receiver.feedback = FeedbackKind::kNone;
      cfg.sender.discard_queue = sim::Duration::millis(-1);
      break;
    case CcKind::kNone:
      break;
  }
}

void SessionConfig::validate() const {
  rpv::validate(sender.frame_interval > sim::Duration::zero(),
                "SessionConfig: sender.frame_interval must be positive");
  rpv::validate(static_bitrate_bps > 0.0,
                "SessionConfig: static_bitrate_bps must be positive");
  rpv::validate(probe_interval >= sim::Duration::zero(),
                "SessionConfig: probe_interval must not be negative");
  rpv::validate(fec_group_size >= 0,
                "SessionConfig: fec_group_size must not be negative");
  rpv::validate(obs.ring_capacity > 0,
                "SessionConfig: obs.ring_capacity must be positive");
  // A non-positive feedback or poll interval re-arms its timer at the same
  // instant forever; an ack window below one acknowledges nothing.
  rpv::validate(receiver.twcc_interval > sim::Duration::zero(),
                "SessionConfig: receiver.twcc_interval must be positive");
  rpv::validate(receiver.rfc8888_interval > sim::Duration::zero(),
                "SessionConfig: receiver.rfc8888_interval must be positive");
  rpv::validate(receiver.rfc8888_ack_window >= 1,
                "SessionConfig: receiver.rfc8888_ack_window must be >= 1");
  rpv::validate(sender.blocked_poll > sim::Duration::zero(),
                "SessionConfig: sender.blocked_poll must be positive");
  if (c2.enabled) {
    rpv::validate(c2.command_interval > sim::Duration::zero(),
                  "SessionConfig: c2.command_interval must be positive");
    rpv::validate(c2.telemetry_interval > sim::Duration::zero(),
                  "SessionConfig: c2.telemetry_interval must be positive");
  }
}

Session::Session(SessionConfig cfg, cellular::CellLayout layout,
                 const geo::Trajectory* trajectory, std::string environment_name)
    // One path: route() always answers path 0, whatever the policy.
    : Session(std::move(cfg), only(std::move(layout)), trajectory,
              std::move(environment_name), bond::Policy::kFailover) {}

Session::Session(SessionConfig cfg, std::vector<cellular::CellLayout> layouts,
                 const geo::Trajectory* trajectory, std::string environment_name,
                 bond::Policy policy)
    : cfg_{std::move(cfg)},
      policy_{policy},
      trajectory_{trajectory},
      environment_{std::move(environment_name)},
      rng_{cfg_.seed} {
  validate(trajectory_ != nullptr, "Session: trajectory must not be null");
  validate(!layouts.empty(), "Session: needs at least one operator layout");
  cfg_.validate();
  // Satellite and mesh paths register last, but the receive side needs to
  // know now whether copies will arrive from several paths.
  const bool bonding = layouts.size() > 1 || cfg_.sat.enabled;
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    auto& bus = buses_.emplace_back();
    if (i > 0) bus.share_sequence(buses_.front());
  }
  auto& bus = buses_.front();
  if (cfg_.obs.enabled) {
    recorder_ = std::make_unique<obs::RingBufferRecorder>(cfg_.obs.ring_capacity);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    subscribe(recorder_.get());
    subscribe(metrics_.get());
  }

  bond::LinkManagerConfig lm_cfg;
  lm_cfg.policy = policy_;
  lm_ = std::make_unique<bond::LinkManager>(sim_, lm_cfg);
  lm_->attach_observer(&bus);
  // The predictors mirror the links' A3 hysteresis and run on every session
  // (instrumentation is free and RNG-less); policy actions are gated inside
  // the adapters on cfg_.predict.proactive.
  cfg_.predict.ho.hysteresis_db = cfg_.link.handover.hysteresis_db;
  ops_.resize(layouts.size());
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    auto& op = ops_[i];
    op.link = std::make_unique<cellular::CellularLink>(
        sim_, std::move(layouts[i]), cfg_.link, trajectory_, rng_.fork());
    op.adapter = std::make_unique<predict::ProactiveAdapter>(cfg_.predict);
    if (cfg_.predict.map_prior != nullptr) {
      // Every operator flies the same trajectory, and the spatial HO risk the
      // map encodes is not operator-specific.
      op.adapter->set_map_prior(cfg_.predict.map_prior, trajectory_);
    }
    // rpv::predict consumes link measurements off the event bus — the sole
    // always-on subscription; every measurement consumer goes through an
    // obs::FunctionSink relay like this one.
    op.relay = std::make_unique<obs::FunctionSink>(
        obs::kind_bit(obs::EventKind::kLinkMeasurement),
        [adapter = op.adapter.get()](const obs::Event& e) {
          adapter->on_link_measurement(
              e.t, std::get<obs::MeasurementPayload>(e.payload));
        });
    buses_[i].subscribe(op.relay.get());
    op.link->attach_observer(&buses_[i]);
    lm_->add_path(op.link.get(), op.adapter.get());
  }
  ho_windows_.emplace(ops_.front().link->handover_log());
  wan_up_ = std::make_unique<net::WanPath>(cfg_.wan, rng_.fork());
  wan_down_ = std::make_unique<net::WanPath>(cfg_.wan, rng_.fork());
  wan_up_->attach_observer(&bus);
  wan_down_->attach_observer(&bus);

  if (!cfg_.faults.empty()) {
    const std::size_t faulted = cfg_.faults_on_link_b ? ops_.size() : 1;
    for (std::size_t i = 0; i < faulted; ++i) {
      auto& injector = ops_[i].injector;
      injector = std::make_unique<fault::FaultInjector>(sim_, cfg_.faults);
      injector->attach_cellular(ops_[i].link.get());
      if (i == 0) injector->attach_wan(wan_up_.get(), wan_down_.get());
      injector->attach_observer(&buses_[i]);
    }
  }
  if (cfg_.resilience) {
    cfg_.sender.resilience.enabled = true;
    cfg_.receiver.resilience.enabled = true;
  }

  apply_cc_settings(cfg_);
  if (cfg_.cc != CcKind::kNone) {
    std::shared_ptr<rtp::FecGroupTable> fec_table;
    if (bonding && bond::uses_fec(policy_)) {
      // The adaptive controller owns the group size.
      fec_ctrl_ = std::make_unique<bond::AdaptiveFecController>(
          bonded_fec(cfg_.fec_group_size, policy_));
      cfg_.sender.fec_group_size = fec_ctrl_->group_size();
      fec_table = std::make_shared<rtp::FecGroupTable>();
    } else if (cfg_.fec_group_size > 0) {
      cfg_.sender.fec_group_size = cfg_.fec_group_size;
      fec_table = std::make_shared<rtp::FecGroupTable>();
    }
    if (bonding) {
      // Copies from several paths arrive skewed and duplicated: the reorder
      // window releases each logical packet once, in sequence order.
      window_ = std::make_unique<bond::ReorderWindow>(
          sim_, bond::ReorderWindowConfig{}, [this](net::Packet p, int) {
            p.received = sim_.now();
            receiver_->on_packet(p);
          });
      window_->attach_observer(&bus);
    }
    receiver_ = std::make_unique<VideoReceiver>(
        sim_, cfg_.receiver, table_,
        [this](rtp::FeedbackReport report, std::size_t size) {
          send_feedback(std::move(report), size);
        },
        rng_.fork(), fec_table);
    // Rate hints and dip/deferral follow the primary operator's predictor.
    auto* primary = ops_.front().adapter.get();
    receiver_->set_owd_hook([this, primary](sim::TimePoint t, double owd_ms) {
      primary->on_owd_sample(t, owd_ms);
      ho_windows_->add(t, owd_ms);
    });
    receiver_->set_goodput_hook([primary](sim::TimePoint t, double mbps) {
      primary->on_goodput_sample(t, mbps);
    });

    sender_ = std::make_unique<VideoSender>(
        sim_, cfg_.sender, make_controller(), table_,
        [this](net::Packet p) { transmit_media(std::move(p)); }, rng_.fork(),
        fec_table);
    sender_->set_proactive_adapter(primary);
    sender_->attach_observer(&bus);
    receiver_->attach_observer(&bus);
  }

  // Satellite and mesh paths fork their RNG streams after every other
  // component, so adding them never perturbs the cellular, WAN, receiver or
  // sender draws.
  if (cfg_.sat.enabled) {
    sat_link_ = std::make_unique<sat::SatelliteLink>(sim_, cfg_.sat.link,
                                                     rng_.fork());
    sat_link_->attach_observer(&bus);
    lm_->add_path(sat_link_.get());
    if (cfg_.sat.mesh_enabled) {
      mesh_link_ = std::make_unique<sat::MeshHopLink>(sim_, cfg_.sat.mesh,
                                                      rng_.fork());
      lm_->add_path(mesh_link_.get());
    }
  }
  for (int i = 0; i < static_cast<int>(lm_->path_count()); ++i) watch_losses(i);
}

void Session::subscribe(obs::EventSink* sink) {
  for (auto& bus : buses_) bus.subscribe(sink);
}

void Session::watch_losses(int path) {
  lm_->path(path).set_loss_callback([this, path](const net::Packet& p) {
    ++radio_losses_;
    const auto second = static_cast<std::size_t>(sim_.now().us() / 1'000'000);
    if (second >= losses_per_second_.size()) {
      losses_per_second_.resize(second + 1, 0);
    }
    ++losses_per_second_[second];
    if (p.kind == net::PacketKind::kRtpVideo ||
        p.kind == net::PacketKind::kFecParity) {
      ++media_losses_;
    }
    lm_->note_lost(path);
  });
}

std::unique_ptr<cc::RateController> Session::make_controller() {
  switch (cfg_.cc) {
    case CcKind::kStatic:
      return std::make_unique<cc::StaticRate>(cfg_.static_bitrate_bps);
    case CcKind::kGcc:
      return std::make_unique<cc::gcc::GccController>(cfg_.gcc);
    case CcKind::kScream:
      return std::make_unique<cc::scream::ScreamController>(cfg_.scream);
    case CcKind::kNone:
      break;
  }
  return std::make_unique<cc::StaticRate>(cfg_.static_bitrate_bps);
}

net::Packet Session::second_copy(const net::Packet& p) {
  // Distinct descriptor ids keep the paths' bookkeeping independent while
  // the RTP identity is shared (the reorder window deduplicates on it).
  net::Packet copy = p;
  copy.id = next_id_++;
  copy.origin_id = p.id;
  return copy;
}

void Session::transmit_media(net::Packet p) {
  const auto d = lm_->route(bond::TrafficClass::kVideo, p);
  if (d.duplicate >= 0) {
    auto copy = second_copy(p);
    send_media(d.primary, std::move(p));
    send_media(d.duplicate, std::move(copy));
    return;
  }
  send_media(d.primary, std::move(p));
}

void Session::send_media(int path, net::Packet p) {
  lm_->note_sent(path, p.size_bytes);
  lm_->path(path).send_uplink(std::move(p), [this, path](net::Packet q) {
    lm_->note_delivered(path);
    // Radio done; WAN leg to the server.
    const auto wan_delay = wan_up_->sample_delay();
    if (wan_up_->drops_packet(sim_.now(), q.id,
                              static_cast<std::uint32_t>(q.size_bytes))) {
      ++wan_drops_;
      return;
    }
    sim_.schedule_in(wan_delay, [this, q, path]() mutable {
      if (window_) {
        window_->on_packet(std::move(q), path);
        return;
      }
      q.received = sim_.now();
      receiver_->on_packet(q);
    });
  });
}

void Session::send_copies(net::Packet p, bond::RouteDecision d, bool uplink,
                          bond::BondablePath::DeliverFn done) {
  if (d.duplicate >= 0) {
    auto copy = second_copy(p);
    done = first_copy_only(std::move(done));
    send_copies(std::move(p), {d.primary, -1}, uplink, done);
    send_copies(std::move(copy), {d.duplicate, -1}, uplink, std::move(done));
    return;
  }
  auto& path = lm_->path(d.primary);
  if (!uplink) {
    path.send_downlink(std::move(p), std::move(done));
    return;
  }
  lm_->note_sent(d.primary, p.size_bytes);
  path.send_uplink(std::move(p), [this, index = d.primary,
                                  done = std::move(done)](net::Packet q) {
    lm_->note_delivered(index);
    done(std::move(q));
  });
}

void Session::send_feedback(rtp::FeedbackReport report, std::size_t size) {
  // Feedback: WAN back-haul, then the downlink of every path; the sender
  // acts on the first copy to arrive. Every path's copy shares the one
  // immutable report.
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kRtcpFeedback;
  p.size_bytes = size;
  const auto wan_delay = wan_down_->sample_delay();
  if (wan_down_->drops_packet(sim_.now(), p.id,
                              static_cast<std::uint32_t>(p.size_bytes))) {
    return;
  }
  auto shared = std::make_shared<const rtp::FeedbackReport>(std::move(report));
  sim_.schedule_in(wan_delay, [this, p, shared = std::move(shared)]() mutable {
    bond::BondablePath::DeliverFn done =
        [this, shared = std::move(shared)](net::Packet) {
          sender_->on_feedback(*shared);
        };
    const int n = static_cast<int>(lm_->path_count());
    if (n > 1) done = first_copy_only(std::move(done));
    for (int i = 0; i < n; ++i) {
      lm_->path(i).send_downlink(i == 0 ? p : second_copy(p),
                                 i + 1 < n ? done : std::move(done));
    }
  });
}

void Session::send_probe() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = 98;  // 64-byte ICMP payload + headers
  const double altitude = trajectory_->position(now).z;
  const auto sent_at = now;
  // Probes measure the primary operator's RTT (Fig. 13): ping and pong both
  // ride path 0.
  send_copies(p, {0, -1}, /*uplink=*/true,
              [this, altitude, sent_at](net::Packet) {
    // Server echoes immediately; pong takes WAN + downlink.
    const auto wan = wan_up_->sample_delay() + wan_down_->sample_delay();
    sim_.schedule_in(wan, [this, altitude, sent_at] {
      net::Packet pong;
      pong.id = next_id_++;
      pong.kind = net::PacketKind::kProbe;
      pong.size_bytes = 98;
      send_copies(pong, {0, -1}, /*uplink=*/false,
                  [this, altitude, sent_at](net::Packet) {
        rtt_by_altitude_.emplace_back(altitude, (sim_.now() - sent_at).ms());
      });
    });
  });
  sim_.schedule_in(cfg_.probe_interval, [this] { send_probe(); });
}

void Session::send_command() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  // Pilot-side: WAN first, then the routed downlink(s) to the UAV.
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = cfg_.c2.command_bytes + 40;
  ++commands_sent_;
  const auto sent_at = now;
  const auto d = lm_->route(bond::TrafficClass::kC2, p);
  const auto wan = wan_down_->sample_delay();
  sim_.schedule_in(wan, [this, p, d, sent_at] {
    send_copies(p, d, /*uplink=*/false, [this, sent_at](net::Packet) {
      command_latency_ms_.add((sim_.now() - sent_at).ms());
    });
  });
  sim_.schedule_in(cfg_.c2.command_interval, [this] { send_command(); });
}

void Session::send_telemetry() {
  const auto now = sim_.now();
  if (now > trajectory_->end()) return;
  // UAV-side: the telemetry packet enters the same uplink queue as the
  // video stream, then crosses the WAN.
  net::Packet p;
  p.id = next_id_++;
  p.kind = net::PacketKind::kProbe;
  p.size_bytes = cfg_.c2.telemetry_bytes + 40;
  ++telemetry_sent_;
  const auto sent_at = now;
  const auto d = lm_->route(bond::TrafficClass::kTelemetry, p);
  send_copies(p, d, /*uplink=*/true, [this, sent_at](net::Packet) {
    const auto wan = wan_up_->sample_delay();
    sim_.schedule_in(wan, [this, sent_at] {
      telemetry_latency_ms_.add((sim_.now() - sent_at).ms());
    });
  });
  sim_.schedule_in(cfg_.c2.telemetry_interval, [this] { send_telemetry(); });
}

void Session::fec_tick() {
  bond::FecInputs in;
  in.max_loss_ewma = lm_->max_loss_ewma();
  in.capacity_mbps = lm_->best_capacity_mbps();
  in.forecast_mbps = lm_->anchor_forecast_mbps();
  in.ho_armed = lm_->any_ho_armed();
  if (const auto change = fec_ctrl_->update(sim_.now(), in)) {
    sender_->set_fec_group_size(change->group_size);
    ++fec_rate_changes_;
    auto& bus = observer();
    if (bus.wants(obs::EventKind::kFecRateChange)) {
      bus.publish(obs::Component::kBond, obs::EventKind::kFecRateChange,
                  sim_.now(),
                  obs::FecRatePayload{change->group_size,
                                      change->prev_group_size,
                                      in.max_loss_ewma, in.ho_armed});
    }
  }
  if (sim_.now() < trajectory_->end()) {
    sim_.schedule_in(kFecTickInterval, [this] { fec_tick(); });
  }
}

SessionReport Session::run() {
  begin();
  sim_.run_until(drain_end());
  return collect();
}

void Session::begin() {
  for (auto& op : ops_) op.link->start();
  for (auto& op : ops_) {
    if (op.injector) op.injector->arm();
  }
  const auto start = trajectory_->start();
  const auto end = trajectory_->end();
  // The satellite's outage schedule covers the whole run, drain included.
  if (sat_link_) sat_link_->start(drain_end() - sim_.now());
  if (sender_) sender_->start(start, end);
  if (receiver_) receiver_->start(start, end);
  if (cfg_.probe_interval > sim::Duration::zero()) {
    sim_.schedule_at(start, [this] { send_probe(); });
  }
  if (cfg_.c2.enabled) {
    sim_.schedule_at(start, [this] { send_command(); });
    sim_.schedule_at(start, [this] { send_telemetry(); });
  }
  if (fec_ctrl_) {
    sim_.schedule_at(start + kFecTickInterval, [this] { fec_tick(); });
  }
}

SessionReport Session::collect() {
  if (window_) window_->flush_all();
  if (receiver_) receiver_->finish();
  for (auto& op : ops_) op.adapter->finish();

  SessionReport r;
  r.cc_name = cc_name(cfg_.cc);
  r.environment = environment_;
  r.duration = trajectory_->duration();

  if (receiver_) {
    const auto& player = receiver_->player();
    r.goodput_mbps_windows = receiver_->goodput_mbps().values();
    r.fps_windows = player.fps_windows();
    r.ssim.add_all(player.played_ssim());
    r.stall_duration_ms = player.stall_durations_ms();
    r.stalls_per_minute = player.stalls_per_minute();
    r.frames_played = player.frames_played();
    r.frames_corrupted = receiver_->corrupted_frames();
    r.owd_ms = receiver_->owd_ms();
    r.owd_per_second_ms = receiver_->owd_per_second_ms();
    for (const auto& s : player.playback_latency_ms().samples()) {
      r.playback_latency_ms.add(s.value);
      r.playback_latency_per_second_ms.add(s.t, s.value);
    }
    r.packets_received = receiver_->packets_received();
    r.jitter_resyncs = receiver_->jitter_buffer().resyncs();
    double total = 0.0;
    for (const double g : r.goodput_mbps_windows) total += g;
    r.avg_goodput_mbps = r.goodput_mbps_windows.empty()
                             ? 0.0
                             : total / static_cast<double>(
                                           r.goodput_mbps_windows.size());
  }
  if (sender_) {
    r.frames_encoded = sender_->frames_encoded();
    r.packets_sent = sender_->packets_sent();
    r.queue_discard_events = sender_->queue_discard_events();
    r.target_bitrate_highs_bps = sender_->target_bitrate_highs();
    if (const auto* scream = dynamic_cast<const cc::scream::ScreamController*>(
            &sender_->controller())) {
      r.scream_misloss_packets = scream->packets_declared_lost();
    }
    // Unplayed frames score SSIM 0 (the paper's convention); exclude a small
    // in-flight tail at the end of the run.
    const std::uint32_t tail_allowance = 15;
    if (r.frames_encoded > r.frames_played + tail_allowance) {
      const std::uint32_t unplayed =
          r.frames_encoded - r.frames_played - tail_allowance;
      for (std::uint32_t i = 0; i < unplayed; ++i) r.ssim.add(0.0);
    }
  }

  // Loss and drop counts sum over every path; the handover log, capacity
  // summaries and prediction block follow the primary operator.
  r.radio_losses = radio_losses_;
  for (const auto& op : ops_) {
    r.buffer_drops += op.link->buffer_drops();
    r.cells_seen += op.link->distinct_cells_seen();
    r.fault_drops += op.link->fault_drops();
  }
  if (r.packets_sent > 0) {
    r.per = static_cast<double>(r.radio_losses + r.buffer_drops) /
            static_cast<double>(r.packets_sent);
  }
  r.losses_per_second = losses_per_second_;

  const auto& primary = *ops_.front().link;
  r.handovers = primary.handover_log();
  r.handover_owd_ms = ho_windows_->finish();
  r.capacity_mbps = primary.capacity_mbps();
  r.wan_drops = wan_drops_;
  r.media_losses = media_losses_;
  if (sender_ && receiver_) {
    r.packets_in_flight = static_cast<std::int64_t>(r.packets_sent) -
                          static_cast<std::int64_t>(r.packets_received) -
                          static_cast<std::int64_t>(r.media_losses) -
                          static_cast<std::int64_t>(r.wan_drops);
  }
  if (sender_) {
    r.watchdog_events = sender_->watchdog_events();
    r.keyframes_forced = sender_->keyframes_forced();
    r.max_ladder_level = sender_->max_ladder_level();
  }
  if (receiver_) r.pli_sent = receiver_->pli_sent();
  if (auto& injector = ops_.front().injector) {
    for (const auto& op : ops_) {
      if (op.injector) r.faults_injected += op.injector->injected();
    }
    if (receiver_) {
      fault::attribute_recovery(injector->outcomes(),
                                receiver_->player().playback_latency_ms(),
                                receiver_->clean_frame_times(),
                                receiver_->player().stall_times());
    }
    r.fault_outcomes = injector->outcomes();
  }

  r.prediction = ops_.front().adapter->stats();

  if (bonded()) {
    r.cc_name += bond::policy_suffix(policy_);
    r.bond_policy = bond::policy_name(policy_);
    r.bond_path_switches = lm_->path_switches();
    r.bond_class_preemptions = lm_->class_preemptions();
    r.bond_fec_rate_changes = fec_rate_changes_;
    r.bond_airtime_bytes = lm_->airtime_bytes();
    if (window_) {
      r.bond_reorder_flushes = window_->flushes();
      r.bond_duplicates_suppressed = window_->duplicates_suppressed();
    }
    if (receiver_) r.bond_fec_recovered = receiver_->fec_recovered();
    if (sender_) r.bond_media_bytes = sender_->bytes_sent();
    for (int i = 0; i < static_cast<int>(lm_->path_count()); ++i) {
      const auto c = lm_->path_counters(i);
      PathBreakdown pb;
      pb.kind = std::string(bond::path_kind_name(c.kind));
      pb.sent_packets = c.sent_packets;
      pb.delivered_packets = c.delivered_packets;
      pb.lost_packets = c.lost_packets;
      pb.airtime_bytes = c.airtime_bytes;
      r.bond_paths.push_back(std::move(pb));
    }
  }
  if (sat_link_) {
    r.sat_enabled = true;
    r.sat_pass_handovers = sat_link_->pass_handovers();
    r.sat_obstructions = sat_link_->obstructions();
    r.sat_outage_ms = sat_link_->outage_ms();
    if (receiver_) {
      // Stall mass whose onset overlapped a sat unavailable window: the part
      // of the stall budget the satellite path was in no position to mask.
      const auto& stall_times = receiver_->player().stall_times();
      const auto& stall_durs = receiver_->player().stall_durations_ms();
      const std::size_t n = std::min(stall_times.size(), stall_durs.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (sat_link_->in_unavailable_window(stall_times[i])) {
          r.sat_stall_ms_in_outage += stall_durs[i];
        }
      }
    }
  }

  r.obs_enabled = cfg_.obs.enabled;
  if (recorder_) {
    r.events = recorder_->snapshot();
    r.obs_events_recorded = recorder_->recorded();
    r.obs_events_dropped = recorder_->dropped();
  }
  if (metrics_) r.obs_metrics = metrics_->summary();

  r.rtt_by_altitude = rtt_by_altitude_;
  r.command_latency_ms = command_latency_ms_;
  r.telemetry_latency_ms = telemetry_latency_ms_;
  r.commands_sent = commands_sent_;
  r.telemetry_sent = telemetry_sent_;
  r.sim_events = sim_.executed_events();
  return r;
}

}  // namespace rpv::pipeline
