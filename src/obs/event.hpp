// rpv::obs — the unified event-stream observability layer.
//
// The paper's analyses (HO timelines, latency CDFs, per-flight timelines)
// correlate packet traces, RRC logs, and application logs collected on
// separate devices. The simulator's counterpart is one typed event stream:
// every component publishes small, allocation-light Event records onto a
// per-session EventBus, and sinks (ring-buffer recorder, metrics registry,
// packet log) consume what they subscribe to. Events carry the monotonic
// simulation timestamp plus a deterministic sequence number, never wall
// clock, so a recorded timeline is byte-identical for any --jobs value.
//
// Layering: obs sits just above rpv::sim and knows nothing about cellular,
// cc, or pipeline types — publishers convert their domain structs into the
// payload PODs defined here, and consumers (e.g. rpv::predict and the radio
// map) read those payloads directly. This keeps the dependency graph acyclic
// while every layer publishes into the same stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "sim/time.hpp"

namespace rpv::obs {

// Who published the event. Kept dense so sinks can index fixed arrays.
enum class Component : std::uint8_t {
  kCellular,   // radio link: measurements, handovers, RLF
  kLinkQueue,  // the deep uplink buffer
  kCc,         // congestion controller
  kSender,     // video sender pipeline
  kReceiver,   // video receiver pipeline
  kWan,        // wide-area path
  kFault,      // fault injector
  kSession,    // session-level bookkeeping
  kBond,       // bonded link manager (rpv::bond)
  kSat,        // LEO satellite / aerial-mesh paths (rpv::sat)
  kPlanner,    // connectivity-aware trajectory planner (rpv::uav)
};
inline constexpr int kComponentCount = 11;

// What happened. At most 64 kinds so a subscription is one uint64 bitmask.
enum class EventKind : std::uint8_t {
  kLinkMeasurement,  // RRC measurement tick (RSRP / capacity snapshot)
  kHandoverStart,    // A3 evaluation triggered a handover
  kHandoverEnd,      // handover execution finished
  kRlf,              // radio link failure -> RRC re-establishment
  kQueueEnqueue,     // packet accepted by the uplink buffer
  kQueueDrop,        // overflow or AQM drop at the uplink buffer
  kQueueDepth,       // periodic uplink-buffer depth snapshot
  kTargetRate,       // CC target bitrate changed
  kOveruse,          // CC bandwidth signal changed (GCC overuse detector)
  kFrameEncoded,     // sender encoded one frame
  kFrameDecoded,     // receiver released one frame from the jitter buffer
  kPacketSent,       // sender put a packet on the wire
  kPacketReceived,   // receiver got a media/parity packet
  kPacketLost,       // packet lost on the radio or in the buffer
  kStall,            // player froze longer than the stall threshold
  kWanDrop,          // packet dropped on the WAN leg
  kFaultInjected,    // scripted fault fired
  kFaultEnded,       // scripted fault window closed
  kPathSwitch,       // bond: traffic moved to another operator link
  kFecRateChange,    // bond: adaptive FEC retuned the parity rate
  kReorderFlush,     // bond: receiver reorder window flushed out of order
  kClassPreempt,     // bond: QoS class diverted around a loaded path
  kSatPassHo,        // sat: satellite-pass handover (short interruption)
  kSatObstructionStart,  // sat: obstruction / rain-fade outage opened
  kSatObstructionEnd,    // sat: obstruction / rain-fade outage closed
  kReplan,           // uav: planner chose a flight path through the radio map
};
inline constexpr int kEventKindCount = 26;

[[nodiscard]] constexpr std::uint64_t kind_bit(EventKind k) {
  return std::uint64_t{1} << static_cast<unsigned>(k);
}
inline constexpr std::uint64_t kAllKinds =
    (std::uint64_t{1} << kEventKindCount) - 1;
// Per-packet kinds: too chatty for a timeline recording, but counted by the
// metrics registry and consumed by the packet log.
inline constexpr std::uint64_t kPacketKinds = kind_bit(EventKind::kQueueEnqueue) |
                                              kind_bit(EventKind::kPacketSent) |
                                              kind_bit(EventKind::kPacketReceived) |
                                              kind_bit(EventKind::kPacketLost) |
                                              kind_bit(EventKind::kWanDrop);
// The Fig.-8-style timeline set: everything except the per-packet firehose
// (losses and WAN drops are rare enough to keep).
inline constexpr std::uint64_t kTimelineKinds =
    kAllKinds & ~(kind_bit(EventKind::kQueueEnqueue) |
                  kind_bit(EventKind::kPacketSent) |
                  kind_bit(EventKind::kPacketReceived));

[[nodiscard]] std::string_view component_name(Component c);
[[nodiscard]] std::string_view event_kind_name(EventKind k);
[[nodiscard]] std::optional<Component> component_from_name(std::string_view name);
[[nodiscard]] std::optional<EventKind> event_kind_from_name(std::string_view name);

// --- Payloads ---------------------------------------------------------------
// Small PODs mirroring the publishing component's domain structs. All
// payloads round-trip through JSONL losslessly (see event_json).

// kLinkMeasurement — the modem's per-tick RRC snapshot. Everything here is
// information a real UE modem reports to the application processor, so
// predictors built on it (rpv::predict) do not peek at simulator internals.
// neighbor_rsrp_dbm = -200 means no neighbor was measured; het_us is the
// sampled execution time of the handover this tick triggered (zero otherwise).
struct MeasurementPayload {
  std::uint32_t serving_cell = 0;
  double serving_rsrp_dbm = 0.0;
  std::uint32_t neighbor_cell = 0;
  double neighbor_rsrp_dbm = -200.0;
  double capacity_mbps = 0.0;
  double queuing_delay_ms = 0.0;
  bool in_handover = false;
  bool ho_triggered = false;
  std::int64_t het_us = 0;
  bool operator==(const MeasurementPayload&) const = default;
};

// kHandoverStart / kHandoverEnd / kRlf.
struct HandoverPayload {
  std::uint32_t source_cell = 0;
  std::uint32_t target_cell = 0;
  std::int64_t het_us = 0;  // execution/outage time
  bool operator==(const HandoverPayload&) const = default;
};

// kQueueEnqueue / kQueueDrop / kQueueDepth.
struct QueuePayload {
  std::uint64_t packet_id = 0;
  std::uint32_t size_bytes = 0;
  std::uint64_t queued_bytes = 0;  // depth after the operation
  std::uint32_t queued_packets = 0;
  // kQueueDrop: 0 = buffer overflow, 1 = AQM (CoDel) drop.
  std::uint8_t reason = 0;
  bool operator==(const QueuePayload&) const = default;
};

// kTargetRate.
struct RatePayload {
  double bps = 0.0;
  bool operator==(const RatePayload&) const = default;
};

// kOveruse — the detector's BandwidthSignal as an int (0 normal, 1 overuse,
// 2 underuse), kept numeric so obs does not depend on rpv::cc.
struct SignalPayload {
  std::int32_t signal = 0;
  bool operator==(const SignalPayload&) const = default;
};

// kFrameEncoded / kFrameDecoded.
struct FramePayload {
  std::uint32_t frame_id = 0;
  std::uint32_t bytes = 0;
  bool keyframe = false;
  bool damaged = false;  // decode side only
  bool operator==(const FramePayload&) const = default;
};

// kPacketSent / kPacketReceived / kPacketLost / kWanDrop.
struct PacketPayload {
  std::uint64_t id = 0;
  std::uint8_t kind = 0;  // net::PacketKind as int
  std::uint32_t size_bytes = 0;
  std::uint32_t frame_id = 0;
  std::uint16_t transport_seq = 0;
  double owd_ms = 0.0;  // receive side only
  bool operator==(const PacketPayload&) const = default;
};

// kStall.
struct StallPayload {
  double duration_ms = 0.0;
  bool operator==(const StallPayload&) const = default;
};

// kFaultInjected / kFaultEnded.
struct FaultPayload {
  std::uint8_t kind = 0;  // fault::FaultKind as int
  std::int64_t duration_us = 0;
  double magnitude = 0.0;
  bool operator==(const FaultPayload&) const = default;
};

// kPathSwitch — the bonded LinkManager moved a traffic class to another path.
// `reason`: 0 = path down (reactive failover), 1 = predicted HO (proactive),
// 2 = faster path available, 3 = probation ended (path re-admitted).
struct PathSwitchPayload {
  std::uint8_t from_path = 0;
  std::uint8_t to_path = 0;
  std::uint8_t reason = 0;
  std::uint8_t traffic_class = 0;  // bond::TrafficClass as int
  bool operator==(const PathSwitchPayload&) const = default;
};

// kFecRateChange — the adaptive FEC controller retuned the parity group size
// (smaller group = more parity overhead = more protection).
struct FecRatePayload {
  std::int32_t group_size = 0;
  std::int32_t prev_group_size = 0;
  double loss_ewma = 0.0;
  bool ho_armed = false;
  bool operator==(const FecRatePayload&) const = default;
};

// kReorderFlush — the receive-side reorder window released packets without
// waiting for the gap to fill. `reason`: 0 = hold timeout, 1 = overflow,
// 2 = drain (end of run, or the stream jumped past everything held).
struct ReorderFlushPayload {
  std::uint32_t released = 0;
  std::uint8_t reason = 0;
  double hold_ms = 0.0;
  bool operator==(const ReorderFlushPayload&) const = default;
};

// kClassPreempt — a high-priority class (C2/telemetry) was diverted off the
// video-loaded path; published on diversion state changes, not per packet.
struct PreemptPayload {
  std::uint8_t traffic_class = 0;
  std::uint8_t from_path = 0;
  std::uint8_t to_path = 0;
  double queue_delay_ms = 0.0;  // standing delay of the path vacated
  bool operator==(const PreemptPayload&) const = default;
};

// kSatPassHo — the serving LEO satellite set, traffic re-routes to the next
// pass; a short, deterministic interruption (the Starlink "15-second
// reconfiguration" cadence).
struct SatPassPayload {
  std::uint32_t pass_index = 0;
  std::int64_t interruption_us = 0;
  bool operator==(const SatPassPayload&) const = default;
};

// kSatObstructionStart / kSatObstructionEnd — an obstruction or rain-fade
// window. `kind`: 0 = obstruction, 1 = rain fade. `magnitude` is the
// capacity multiplier in effect during the window (0 = hard outage).
struct SatOutagePayload {
  std::uint8_t kind = 0;
  std::int64_t duration_us = 0;
  double magnitude = 0.0;
  bool operator==(const SatOutagePayload&) const = default;
};

// kReplan — the connectivity-aware planner (rpv::uav) selected the flight
// path for a kPlanned mission: how many candidates it scored, which won,
// and the map-predicted stall cost of the mission vs. the chosen path.
struct ReplanPayload {
  std::uint32_t candidates = 0;
  std::uint32_t selected = 0;  // 0 = the unmodified mission
  double predicted_stall_ms_direct = 0.0;
  double predicted_stall_ms_selected = 0.0;
  double deviation_m = 0.0;  // mean displacement of the chosen path
  bool operator==(const ReplanPayload&) const = default;
};

using Payload =
    std::variant<std::monostate, MeasurementPayload, HandoverPayload,
                 QueuePayload, RatePayload, SignalPayload, FramePayload,
                 PacketPayload, StallPayload, FaultPayload, PathSwitchPayload,
                 FecRatePayload, ReorderFlushPayload, PreemptPayload,
                 SatPassPayload, SatOutagePayload, ReplanPayload>;

// One record on the stream. `seq` is assigned by the bus in publish order;
// inside one (single-threaded, deterministic) simulation, sorting by
// (t, seq) totally orders the stream, and the order is reproducible for any
// worker count because each run owns its bus.
struct Event {
  sim::TimePoint t;
  std::uint64_t seq = 0;
  Component component = Component::kSession;
  EventKind kind = EventKind::kLinkMeasurement;
  Payload payload;
  bool operator==(const Event&) const = default;
};

// Human-readable one-line rendering, e.g.
//   "t=12.345s [cellular] handover-start cell 3 -> 5 (het 120.0 ms)".
[[nodiscard]] std::string describe(const Event& e);

}  // namespace rpv::obs
