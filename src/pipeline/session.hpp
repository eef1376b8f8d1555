// One measurement run: UAV (or ground vehicle) trajectory + one or more
// paths (cellular operator links, optionally a LEO satellite and an aerial
// mesh relay) + WAN + video sender/receiver, wired into a single
// discrete-event simulation.
//
// This mirrors the paper's setup (Fig. 2): the sender re-encodes the source
// video at the CC's target bitrate and streams RTP/UDP over LTE to the
// remote server; feedback (RTCP) flows back over the same bearer. Probe mode
// replaces the video workload with ICMP-style pings for the latency-vs-
// altitude analyses.
//
// Every packet is routed through a bond::LinkManager. A single-path session
// registers one path and the manager's route() always answers path 0: no
// reorder window, no FEC controller, no extra engine events. With several
// paths (the paper's Section 5 multi-operator outlook, its reference [9])
// the manager schedules C2 > telemetry > video across them under a
// bond::Policy, the receive side reassembles through a bond::ReorderWindow,
// and FEC-backed policies retune parity through a
// bond::AdaptiveFecController.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bond/fec_controller.hpp"
#include "bond/link_manager.hpp"
#include "bond/policy.hpp"
#include "bond/reorder_window.hpp"
#include "cc/gcc/gcc_controller.hpp"
#include "cc/scream/scream_controller.hpp"
#include "cellular/cellular_link.hpp"
#include "fault/fault_injector.hpp"
#include "geo/trajectory.hpp"
#include "net/wan_path.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report.hpp"
#include "predict/proactive_adapter.hpp"
#include "sat/mesh_link.hpp"
#include "sat/satellite_link.hpp"
#include "pipeline/video_receiver.hpp"
#include "pipeline/video_sender.hpp"
#include "sim/simulator.hpp"

namespace rpv::pipeline {

enum class CcKind { kStatic, kGcc, kScream, kNone /* probe-only */ };
// cc_name's names, indexed by CcKind; the artifact manifest stores them.
inline constexpr std::array<std::string_view, 4> kCcNames = {"static", "gcc",
                                                             "scream", "probe"};

[[nodiscard]] std::string cc_name(CcKind kind);

struct SessionConfig {
  CcKind cc = CcKind::kGcc;
  double static_bitrate_bps = 8e6;  // used when cc == kStatic

  SenderConfig sender;
  ReceiverConfig receiver;
  cc::gcc::GccConfig gcc;
  cc::scream::ScreamConfig scream;
  cellular::CellularLinkConfig link;
  net::WanConfig wan;

  // Probe traffic (RTT measurement); zero disables.
  sim::Duration probe_interval = sim::Duration::zero();

  // XOR FEC group size (packets per parity); 0 disables (paper ref [9]).
  int fec_group_size = 0;

  // Observability (rpv::obs). When `enabled`, the session subscribes a
  // bounded ring-buffer recorder plus the metrics registry to its event bus
  // (events + counters/histograms land in the SessionReport). With it off
  // the bus carries only the kLinkMeasurement subscription rpv::predict
  // needs, and every other publish site is a single mask test.
  struct ObsConfig {
    bool enabled = false;
    std::size_t ring_capacity = obs::RingBufferRecorder::kDefaultCapacity;
  } obs;

  // Command-and-control channel (the RP scenario of Fig. 1): the pilot sends
  // command packets downlink at a fixed cadence; the UAV returns telemetry
  // uplink, sharing the bearer (and its deep queue) with the video stream.
  struct C2Config {
    bool enabled = false;
    sim::Duration command_interval = sim::Duration::millis(50);   // 20 Hz
    std::size_t command_bytes = 60;
    sim::Duration telemetry_interval = sim::Duration::millis(100);  // 10 Hz
    std::size_t telemetry_bytes = 120;
  } c2;

  // Link-quality prediction (always instrumented) + the HO-aware proactive
  // policy (acts only when predict.proactive is set).
  predict::ProactiveConfig predict;

  // Scripted fault injection; an empty schedule injects nothing. It targets
  // the first operator link and the WAN.
  fault::FaultSchedule faults;
  // Replay the same schedule on every further operator link too (sessions
  // built from more than one layout). Off by default: faults hit the first
  // operator only. WAN events are not doubled: the WAN is shared and the
  // first operator's injector owns it.
  bool faults_on_link_b = false;

  // Multi-connectivity (rpv::sat): attach a LEO satellite path — and
  // optionally an aerial-mesh relay chain — as extra paths after the
  // operator links. Any session honors it; a session with more than one
  // path in total is bonded.
  struct SatConfig {
    bool enabled = false;
    sat::SatelliteLinkConfig link;
    bool mesh_enabled = false;
    sat::MeshLinkConfig mesh;
  } sat;

  // Enable the end-to-end resilience stack: sender feedback watchdog +
  // degradation ladder, receiver PLI keyframe recovery.
  bool resilience = false;

  std::uint64_t seed = 1;

  // Pre-flight validation of every config-level invariant (the checks that
  // used to be scattered across components). Throws std::invalid_argument.
  // Called by Session's constructor and by CampaignEngine before sharding.
  void validate() const;
};

// Sets the receiver feedback and sender queue discard `cfg.cc` runs with:
// TWCC for GCC, RFC 8888 plus the Ericsson library's 100 ms queue flush for
// SCReAM, no feedback for static; probe-only (kNone) leaves both as they
// are. Session's constructor applies it, and experiment::make_session_config
// too, so a config read before its session is built holds the same values.
void apply_cc_settings(SessionConfig& cfg);

class Session {
 public:
  // Single-path session over one operator layout. `layout` is copied;
  // `trajectory` must outlive the session.
  Session(SessionConfig cfg, cellular::CellLayout layout,
          const geo::Trajectory* trajectory, std::string environment_name);
  // One path per operator layout, in order, then the cfg.sat paths. With
  // more than one path in total, `policy` schedules traffic across them.
  Session(SessionConfig cfg, std::vector<cellular::CellLayout> layouts,
          const geo::Trajectory* trajectory, std::string environment_name,
          bond::Policy policy);

  // Run the full trajectory plus drain time and return the report.
  // Equivalent to begin(); simulator().run_until(drain_end()); collect().
  SessionReport run();

  // Schedule the session's workload (link measurement loops, sender,
  // receiver, probes, C2, faults, FEC retuning) without running the
  // simulator. An external loop — rpv::fleet's epoch loop — then advances
  // simulator() in steps; stepping to drain_end() in any increments executes
  // the identical event sequence run() would.
  void begin();
  // Finish the receiver/adapters and build the report. Call exactly once,
  // after the simulator has reached drain_end().
  SessionReport collect();
  // End of the trajectory plus the in-flight drain allowance.
  [[nodiscard]] sim::TimePoint drain_end() const {
    return trajectory_->end() + sim::Duration::seconds(2.0);
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  // The primary operator's link (the first layout).
  [[nodiscard]] cellular::CellularLink& link() { return *ops_.front().link; }
  [[nodiscard]] bond::LinkManager& link_manager() { return *lm_; }
  // The receive side, null in a probe-only session. Its player keeps the
  // playback-latency series the report summarises.
  [[nodiscard]] const VideoReceiver* receiver() const { return receiver_.get(); }

  // The session-level stream: the primary operator plus the bond, WAN,
  // sender, receiver and satellite events. Session-scoped events such as
  // kReplan are published here.
  [[nodiscard]] obs::EventBus& observer() { return buses_.front(); }
  // Subscribe a sink to every stream of the session before run(). Each event
  // is published on exactly one stream, so the sink sees each once; all
  // streams share one publish-ordered seq.
  void subscribe(obs::EventSink* sink);

 private:
  // One cellular operator: its link, its predictor (fed from the operator's
  // own stream, buses_[i], so it never sees another modem's measurements)
  // and, with faults, its injector.
  struct Operator {
    std::unique_ptr<cellular::CellularLink> link;
    std::unique_ptr<predict::ProactiveAdapter> adapter;
    std::unique_ptr<obs::FunctionSink> relay;
    std::unique_ptr<fault::FaultInjector> injector;
  };

  [[nodiscard]] bool bonded() const { return lm_->path_count() > 1; }
  void watch_losses(int path);
  // `p` again for another path: fresh descriptor id, origin_id tying it back.
  net::Packet second_copy(const net::Packet& p);
  void transmit_media(net::Packet p);
  void send_media(int path, net::Packet p);
  void send_copies(net::Packet p, bond::RouteDecision d, bool uplink,
                   bond::BondablePath::DeliverFn done);
  void send_feedback(rtp::FeedbackReport report, std::size_t size);
  void send_probe();
  void send_command();
  void send_telemetry();
  void fec_tick();
  std::unique_ptr<cc::RateController> make_controller();

  SessionConfig cfg_;
  bond::Policy policy_;
  const geo::Trajectory* trajectory_;
  std::string environment_;
  sim::Simulator sim_;
  sim::Rng rng_;
  // One stream per operator, sharing one seq; front() is the session-level
  // stream. Outlives every publisher below.
  std::deque<obs::EventBus> buses_;
  std::unique_ptr<obs::RingBufferRecorder> recorder_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::vector<Operator> ops_;
  std::unique_ptr<sat::SatelliteLink> sat_link_;
  std::unique_ptr<sat::MeshHopLink> mesh_link_;
  std::unique_ptr<bond::LinkManager> lm_;
  std::unique_ptr<bond::ReorderWindow> window_;            // bonded only
  std::unique_ptr<bond::AdaptiveFecController> fec_ctrl_;  // bonded FEC only
  std::unique_ptr<net::WanPath> wan_up_;
  std::unique_ptr<net::WanPath> wan_down_;
  FrameTable table_;
  std::unique_ptr<VideoSender> sender_;
  std::unique_ptr<VideoReceiver> receiver_;
  // One-way latency around the primary operator's handovers.
  std::optional<metrics::HandoverWindowTracker> ho_windows_;

  std::vector<std::uint64_t> losses_per_second_;
  std::uint64_t radio_losses_ = 0;
  std::uint64_t media_losses_ = 0;
  std::uint64_t wan_drops_ = 0;
  std::uint64_t fec_rate_changes_ = 0;
  std::vector<std::pair<double, double>> rtt_by_altitude_;
  metrics::Cdf command_latency_ms_;
  metrics::Cdf telemetry_latency_ms_;
  std::uint64_t commands_sent_ = 0;
  std::uint64_t telemetry_sent_ = 0;
  std::uint64_t next_id_ = 1ULL << 48;
};

}  // namespace rpv::pipeline
