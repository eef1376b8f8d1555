#include "fleet/fleet_report.hpp"

#include <stdexcept>

#include "json/binder.hpp"

namespace rpv::fleet {

template <class IO>
void fields(IO& io, CellLoadPeak& c) {
  io.field("cell", c.cell_id);
  io.field("peak_users", c.peak_users);
}

template <class IO>
void fields(IO& io, FleetReport& r) {
  json::schema(io, kFleetSchemaVersion, "fleet_report_json");
  std::string kind = "fleet";
  io.field("kind", kind);
  if (kind != "fleet") {
    throw std::runtime_error("fleet_report_json: not a fleet report");
  }
  io.field("label", r.label);
  io.object("fleet", [&](auto& f) {
    f.field("sessions", r.sessions);
    f.field("horizon_sec", r.horizon_sec);
    f.field("epoch_sec", r.epoch_sec);
    f.field("total_events", r.total_events);
    f.field("mean_goodput_mbps", r.mean_goodput_mbps);
    f.field("min_goodput_mbps", r.min_goodput_mbps);
    f.field("max_goodput_mbps", r.max_goodput_mbps);
    f.field("total_stalls", r.total_stalls);
    f.field("mean_stall_ms_per_session", r.mean_stall_ms_per_session);
    f.field("packets_sent", r.packets_sent);
    f.field("packets_received", r.packets_received);
    f.field("peak_cell_load", r.peak_cell_load);
    f.field("cell_peak_load", r.cell_peak_load);
  });
  io.field("metrics", r.metrics);
  io.object("contention", [&](auto& c) {
    c.field("owd_contended_ms", r.owd_contended_ms);
    c.field("owd_clean_ms", r.owd_clean_ms);
    c.field("stall_contended_ms", r.stall_contended_ms);
    c.field("stall_clean_ms", r.stall_clean_ms);
  });
}

json::Value fleet_report_to_json(const FleetReport& r) {
  return json::Writer::encode(r);
}

FleetReport fleet_report_from_json(const json::Value& v) {
  FleetReport r;
  json::Reader::decode(v, r);
  return r;
}

}  // namespace rpv::fleet
