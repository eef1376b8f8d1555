#include "obs/event.hpp"

#include <array>
#include <cstdarg>
#include <cstdio>
#include <type_traits>

#include "json/binder.hpp"
#include "obs/event_json.hpp"

namespace rpv::obs {

namespace {

constexpr std::array<std::string_view, kComponentCount> kComponentNames = {
    "cellular", "link-queue", "cc",  "sender",
    "receiver", "wan",        "fault", "session", "bond", "sat", "planner",
};

constexpr std::array<std::string_view, kEventKindCount> kKindNames = {
    "link-measurement", "handover-start", "handover-end", "rlf",
    "queue-enqueue",    "queue-drop",     "queue-depth",  "target-rate",
    "overuse",          "frame-encoded",  "frame-decoded", "packet-sent",
    "packet-received",  "packet-lost",    "stall",        "wan-drop",
    "fault-injected",   "fault-ended",    "path-switch",  "fec-rate-change",
    "reorder-flush",    "class-preempt",  "sat-pass-ho",
    "sat-obstruction-start", "sat-obstruction-end", "replan",
};

std::string fmt(const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string_view component_name(Component c) {
  return kComponentNames[static_cast<std::size_t>(c)];
}

std::string_view event_kind_name(EventKind k) {
  return kKindNames[static_cast<std::size_t>(k)];
}

std::optional<Component> component_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kComponentNames.size(); ++i) {
    if (kComponentNames[i] == name) return static_cast<Component>(i);
  }
  return std::nullopt;
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

// --- JSON -------------------------------------------------------------------
// One field list per payload and one for the envelope; json::Writer and
// json::Reader both walk them (json/binder.hpp).

template <class IO>
void fields(IO& io, MeasurementPayload& m) {
  io.field("serving_cell", m.serving_cell);
  io.field("serving_rsrp_dbm", m.serving_rsrp_dbm);
  io.field("neighbor_cell", m.neighbor_cell);
  io.field("neighbor_rsrp_dbm", m.neighbor_rsrp_dbm);
  io.field("capacity_mbps", m.capacity_mbps);
  io.field("queuing_delay_ms", m.queuing_delay_ms);
  io.field("in_handover", m.in_handover);
  io.field("ho_triggered", m.ho_triggered);
  io.field("het_us", m.het_us);
}

template <class IO>
void fields(IO& io, HandoverPayload& h) {
  io.field("source_cell", h.source_cell);
  io.field("target_cell", h.target_cell);
  io.field("het_us", h.het_us);
}

template <class IO>
void fields(IO& io, QueuePayload& q) {
  io.field("packet_id", q.packet_id);
  io.field("size_bytes", q.size_bytes);
  io.field("queued_bytes", q.queued_bytes);
  io.field("queued_packets", q.queued_packets);
  io.field("reason", q.reason);
}

template <class IO>
void fields(IO& io, RatePayload& r) {
  io.field("bps", r.bps);
}

template <class IO>
void fields(IO& io, SignalPayload& s) {
  io.field("signal", s.signal);
}

template <class IO>
void fields(IO& io, FramePayload& f) {
  io.field("frame_id", f.frame_id);
  io.field("bytes", f.bytes);
  io.field("keyframe", f.keyframe);
  io.field("damaged", f.damaged);
}

template <class IO>
void fields(IO& io, PacketPayload& p) {
  io.field("id", p.id);
  io.field("kind", p.kind);
  io.field("size_bytes", p.size_bytes);
  io.field("frame_id", p.frame_id);
  io.field("transport_seq", p.transport_seq);
  io.field("owd_ms", p.owd_ms);
}

template <class IO>
void fields(IO& io, StallPayload& s) {
  io.field("duration_ms", s.duration_ms);
}

template <class IO>
void fields(IO& io, FaultPayload& f) {
  io.field("kind", f.kind);
  io.field("duration_us", f.duration_us);
  io.field("magnitude", f.magnitude);
}

template <class IO>
void fields(IO& io, PathSwitchPayload& p) {
  io.field("from_path", p.from_path);
  io.field("to_path", p.to_path);
  io.field("reason", p.reason);
  io.field("traffic_class", p.traffic_class);
}

template <class IO>
void fields(IO& io, FecRatePayload& f) {
  io.field("group_size", f.group_size);
  io.field("prev_group_size", f.prev_group_size);
  io.field("loss_ewma", f.loss_ewma);
  io.field("ho_armed", f.ho_armed);
}

template <class IO>
void fields(IO& io, ReorderFlushPayload& r) {
  io.field("released", r.released);
  io.field("reason", r.reason);
  io.field("hold_ms", r.hold_ms);
}

template <class IO>
void fields(IO& io, PreemptPayload& p) {
  io.field("traffic_class", p.traffic_class);
  io.field("from_path", p.from_path);
  io.field("to_path", p.to_path);
  io.field("queue_delay_ms", p.queue_delay_ms);
}

template <class IO>
void fields(IO& io, SatPassPayload& s) {
  io.field("pass_index", s.pass_index);
  io.field("interruption_us", s.interruption_us);
}

template <class IO>
void fields(IO& io, SatOutagePayload& s) {
  io.field("kind", s.kind);
  io.field("duration_us", s.duration_us);
  io.field("magnitude", s.magnitude);
}

template <class IO>
void fields(IO& io, ReplanPayload& r) {
  io.field("candidates", r.candidates);
  io.field("selected", r.selected);
  io.field("predicted_stall_ms_direct", r.predicted_stall_ms_direct);
  io.field("predicted_stall_ms_selected", r.predicted_stall_ms_selected);
  io.field("deviation_m", r.deviation_m);
}

namespace {

// The payload type each kind carries, in EventKind order; the reader
// decodes "p" into a copy of the kind's entry.
const std::array<Payload, kEventKindCount> kPayloadOfKind = {
    MeasurementPayload{}, HandoverPayload{},   HandoverPayload{},
    HandoverPayload{},    QueuePayload{},      QueuePayload{},
    QueuePayload{},       RatePayload{},       SignalPayload{},
    FramePayload{},       FramePayload{},      PacketPayload{},
    PacketPayload{},      PacketPayload{},     StallPayload{},
    PacketPayload{},      FaultPayload{},      FaultPayload{},
    PathSwitchPayload{},  FecRatePayload{},    ReorderFlushPayload{},
    PreemptPayload{},     SatPassPayload{},    SatOutagePayload{},
    SatOutagePayload{},   ReplanPayload{},
};

}  // namespace

// {"t_us", "seq", "component", "kind", "p"}; "p" is omitted for payload-less
// events.
template <class IO>
void fields(IO& io, Event& e) {
  io.field("t_us", e.t);
  io.field("seq", e.seq);
  io.field("component", json::named(e.component, kComponentNames));
  io.field("kind", json::named(e.kind, kKindNames));
  if constexpr (IO::kReading) {
    if (!io.has("p")) return;
    e.payload = kPayloadOfKind[static_cast<std::size_t>(e.kind)];
  }
  std::visit(
      [&](auto& p) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(p)>,
                                      std::monostate>) {
          io.field("p", p);
        }
      },
      e.payload);
}

json::Value event_to_json(const Event& e) { return json::Writer::encode(e); }

Event event_from_json(const json::Value& v) {
  Event e;
  json::Reader::decode(v, e);
  return e;
}

// --- Pretty printing --------------------------------------------------------

std::string describe(const Event& e) {
  std::string out = fmt("t=%.3fs [%.*s] %.*s", e.t.sec(),
                        static_cast<int>(component_name(e.component).size()),
                        component_name(e.component).data(),
                        static_cast<int>(event_kind_name(e.kind).size()),
                        event_kind_name(e.kind).data());
  if (const auto* m = std::get_if<MeasurementPayload>(&e.payload)) {
    out += fmt(" cell %u rsrp %.1f dBm (nbr %u: %.1f) cap %.2f Mbps queue %.1f ms%s",
               m->serving_cell, m->serving_rsrp_dbm, m->neighbor_cell,
               m->neighbor_rsrp_dbm, m->capacity_mbps, m->queuing_delay_ms,
               m->in_handover ? " [in-HO]" : "");
  } else if (const auto* h = std::get_if<HandoverPayload>(&e.payload)) {
    out += fmt(" cell %u -> %u (het %.1f ms)", h->source_cell, h->target_cell,
               static_cast<double>(h->het_us) / 1000.0);
  } else if (const auto* q = std::get_if<QueuePayload>(&e.payload)) {
    if (e.kind == EventKind::kQueueDrop) {
      out += fmt(" pkt %llu (%u B) %s, depth %llu B / %u pkts",
                 static_cast<unsigned long long>(q->packet_id), q->size_bytes,
                 q->reason == 1 ? "aqm" : "overflow",
                 static_cast<unsigned long long>(q->queued_bytes),
                 q->queued_packets);
    } else if (e.kind == EventKind::kQueueDepth) {
      out += fmt(" depth %llu B / %u pkts",
                 static_cast<unsigned long long>(q->queued_bytes),
                 q->queued_packets);
    } else {
      out += fmt(" pkt %llu (%u B), depth %llu B / %u pkts",
                 static_cast<unsigned long long>(q->packet_id), q->size_bytes,
                 static_cast<unsigned long long>(q->queued_bytes),
                 q->queued_packets);
    }
  } else if (const auto* r = std::get_if<RatePayload>(&e.payload)) {
    out += fmt(" %.3f Mbps", r->bps / 1e6);
  } else if (const auto* s = std::get_if<SignalPayload>(&e.payload)) {
    const char* name = s->signal == 1   ? "overuse"
                       : s->signal == 2 ? "underuse"
                                        : "normal";
    out += fmt(" signal=%s", name);
  } else if (const auto* f = std::get_if<FramePayload>(&e.payload)) {
    out += fmt(" frame %u (%u B)%s%s", f->frame_id, f->bytes,
               f->keyframe ? " [key]" : "", f->damaged ? " [damaged]" : "");
  } else if (const auto* pk = std::get_if<PacketPayload>(&e.payload)) {
    out += fmt(" pkt %llu (%u B) frame %u seq %u",
               static_cast<unsigned long long>(pk->id), pk->size_bytes,
               pk->frame_id, pk->transport_seq);
    if (e.kind == EventKind::kPacketReceived) {
      out += fmt(" owd %.1f ms", pk->owd_ms);
    }
  } else if (const auto* st = std::get_if<StallPayload>(&e.payload)) {
    out += fmt(" %.1f ms", st->duration_ms);
  } else if (const auto* fa = std::get_if<FaultPayload>(&e.payload)) {
    out += fmt(" kind=%u duration %.1f ms magnitude %.2f", fa->kind,
               static_cast<double>(fa->duration_us) / 1000.0, fa->magnitude);
  } else if (const auto* ps = std::get_if<PathSwitchPayload>(&e.payload)) {
    const char* why = ps->reason == 0   ? "path-down"
                      : ps->reason == 1 ? "predicted-ho"
                      : ps->reason == 2 ? "faster-path"
                                        : "probation-end";
    out += fmt(" class %u path %u -> %u (%s)", ps->traffic_class, ps->from_path,
               ps->to_path, why);
  } else if (const auto* fr = std::get_if<FecRatePayload>(&e.payload)) {
    out += fmt(" group %d -> %d (loss ewma %.3f%s)", fr->prev_group_size,
               fr->group_size, fr->loss_ewma, fr->ho_armed ? ", HO armed" : "");
  } else if (const auto* rf = std::get_if<ReorderFlushPayload>(&e.payload)) {
    const char* why = rf->reason == 0   ? "timeout"
                      : rf->reason == 1 ? "overflow"
                                        : "drain";
    out += fmt(" released %u (%s, held %.1f ms)", rf->released, why, rf->hold_ms);
  } else if (const auto* pr = std::get_if<PreemptPayload>(&e.payload)) {
    out += fmt(" class %u path %u -> %u (queue %.1f ms)", pr->traffic_class,
               pr->from_path, pr->to_path, pr->queue_delay_ms);
  } else if (const auto* sp = std::get_if<SatPassPayload>(&e.payload)) {
    out += fmt(" pass %u (interruption %.1f ms)", sp->pass_index,
               static_cast<double>(sp->interruption_us) / 1000.0);
  } else if (const auto* so = std::get_if<SatOutagePayload>(&e.payload)) {
    out += fmt(" %s %.1f ms (capacity x%.2f)",
               so->kind == 1 ? "rain-fade" : "obstruction",
               static_cast<double>(so->duration_us) / 1000.0, so->magnitude);
  } else if (const auto* rp = std::get_if<ReplanPayload>(&e.payload)) {
    out += fmt(" candidate %u/%u (stall %.0f -> %.0f ms, deviation %.1f m)",
               rp->selected, rp->candidates, rp->predicted_stall_ms_direct,
               rp->predicted_stall_ms_selected, rp->deviation_m);
  }
  return out;
}

}  // namespace rpv::obs
