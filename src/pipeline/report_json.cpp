#include "pipeline/report_json.hpp"

#include "json/binder.hpp"

// The report's JSON field lists, one per record; json::Writer and
// json::Reader both walk them (see json/binder.hpp).

namespace rpv::metrics {

// Two parallel arrays, like every row list here.
template <class IO>
void fields(IO& io, Highs& h) {
  io.columns(h.samples_, "t_us", &Sample::t, "values", &Sample::value);
  if constexpr (IO::kReading) {
    for (std::size_t i = 1; i < h.samples_.size(); ++i) {
      if (!(h.samples_[i].value > h.samples_[i - 1].value) ||
          h.samples_[i].t < h.samples_[i - 1].t) {
        throw std::runtime_error("Highs: values must rise and times not fall");
      }
    }
  }
}

// Sparse: the occupied bins and their counts, plus the exact moments.
template <class IO>
void fields(IO& io, Cdf& c) {
  std::vector<Cdf::Bin> bins;
  double sum = c.sum();
  double min = c.min();
  double max = c.max();
  if constexpr (!IO::kReading) bins = c.occupied();
  io.field("sum", sum);
  io.field("min", min);
  io.field("max", max);
  io.columns(bins, "bins", &Cdf::Bin::bin, "counts", &Cdf::Bin::n);
  if constexpr (IO::kReading) c = Cdf::from_parts(bins, sum, min, max);
}

template <class IO>
void fields(IO& io, PerSecond& p) {
  io.columns(p.rows_, "n", &PerSecond::Row::n, "sum", &PerSecond::Row::sum);
}

template <class IO>
void fields(IO& io, WindowExtrema& w) {
  io.field("n", w.n);
  io.field("min", w.min);
  io.field("max", w.max);
}

template <class IO>
void fields(IO& io, HandoverWindows& w) {
  io.field("lead", w.lead);
  io.field("before", w.before);
  io.field("after", w.after);
}

template <class IO>
void fields(IO& io, HandoverEvent& e) {
  io.field("start_us", e.start);
  io.field("het_us", e.het);
  io.field("source_cell", e.source_cell);
  io.field("target_cell", e.target_cell);
  io.field("ping_pong", e.ping_pong);
}

template <class IO>
void fields(IO& io, HandoverLog& log) {
  io.value(log.events_);
}

}  // namespace rpv::metrics

namespace rpv::fault {

template <class IO>
void fields(IO& io, FaultOutcome& o) {
  io.field("at_us", o.event.at);
  io.field("duration_us", o.event.duration);
  io.field("kind", o.event.kind);
  io.field("magnitude", o.event.magnitude);
  io.field("effective_us", o.effective_duration);
  io.field("recovery_ms", o.recovery_ms);
  io.field("stalls_attributed", o.stalls_attributed);
}

}  // namespace rpv::fault

namespace rpv::predict {

template <class IO>
void fields(IO& io, PredictionStats& p) {
  io.field("enabled", p.enabled);
  io.field("proactive", p.proactive);
  io.field("ho_predicted", p.ho_predicted);
  io.field("ho_true_positives", p.ho_true_positives);
  io.field("ho_false_positives", p.ho_false_positives);
  io.field("ho_missed", p.ho_missed);
  io.field("ho_lead_time_ms", p.ho_lead_time_ms);
  io.field("capacity_mae_mbps", p.capacity_mae_mbps);
  io.field("capacity_samples", p.capacity_samples);
  io.field("dip_windows", p.dip_windows);
  io.field("keyframes_deferred", p.keyframes_deferred);
  io.field("proactive_flushes", p.proactive_flushes);
  io.field("predictive_switches", p.predictive_switches);
  io.field("map_prior", p.map_prior);
  io.field("map_prior_arms", p.map_prior_arms);
}

}  // namespace rpv::predict

namespace rpv::pipeline {

template <class IO>
void fields(IO& io, PathBreakdown& p) {
  io.field("kind", p.kind);
  io.field("sent_packets", p.sent_packets);
  io.field("delivered_packets", p.delivered_packets);
  io.field("lost_packets", p.lost_packets);
  io.field("airtime_bytes", p.airtime_bytes);
}

template <class IO>
void fields(IO& io, SessionReport& r) {
  json::schema(io, kReportSchemaVersion, "report_json");
  io.field("cc_name", r.cc_name);
  io.field("environment", r.environment);
  io.field("duration_us", r.duration);

  // Video delivery.
  io.field("goodput_mbps_windows", r.goodput_mbps_windows);
  io.field("fps_windows", r.fps_windows);
  io.field("ssim", r.ssim);
  io.field("stalls_per_minute", r.stalls_per_minute);
  io.field("stall_duration_ms", r.stall_duration_ms);
  io.field("frames_encoded", r.frames_encoded);
  io.field("frames_played", r.frames_played);
  io.field("frames_corrupted", r.frames_corrupted);
  io.field("avg_goodput_mbps", r.avg_goodput_mbps);

  // Network.
  io.field("per", r.per);
  io.field("cells_seen", r.cells_seen);
  io.field("packets_sent", r.packets_sent);
  io.field("packets_received", r.packets_received);
  io.field("radio_losses", r.radio_losses);
  io.field("buffer_drops", r.buffer_drops);

  // Fault injection & resilience.
  io.field("wan_drops", r.wan_drops);
  io.field("media_losses", r.media_losses);
  io.field("packets_in_flight", r.packets_in_flight);
  io.field("fault_drops", r.fault_drops);
  io.field("faults_injected", r.faults_injected);
  io.field("watchdog_events", r.watchdog_events);
  io.field("pli_sent", r.pli_sent);
  io.field("keyframes_forced", r.keyframes_forced);
  io.field("max_ladder_level", r.max_ladder_level);
  io.field("fault_outcomes", r.fault_outcomes);

  // Prediction & proactive adaptation.
  io.field("prediction", r.prediction);

  // Connectivity-aware flight planning (rpv::uav, schema v7).
  io.object("planning", [&](auto& o) {
    o.field("planned", r.planned);
    o.field("replanned", r.plan_replanned);
    o.field("candidates", r.plan_candidates);
    o.field("selected", r.plan_selected);
    o.field("predicted_stall_ms_direct", r.plan_predicted_stall_ms_direct);
    o.field("predicted_stall_ms_selected", r.plan_predicted_stall_ms_selected);
    o.field("deviation_m", r.plan_deviation_m);
  });

  // Bonded link management (schema v4; per-path breakdown since v6).
  io.object("bond", [&](auto& o) {
    o.field("policy", r.bond_policy);
    o.field("path_switches", r.bond_path_switches);
    o.field("class_preemptions", r.bond_class_preemptions);
    o.field("fec_rate_changes", r.bond_fec_rate_changes);
    o.field("reorder_flushes", r.bond_reorder_flushes);
    o.field("duplicates_suppressed", r.bond_duplicates_suppressed);
    o.field("fec_recovered", r.bond_fec_recovered);
    o.field("airtime_bytes", r.bond_airtime_bytes);
    o.field("media_bytes", r.bond_media_bytes);
    o.field("paths", r.bond_paths);
  });

  // LEO satellite / mesh path (schema v6).
  io.object("sat", [&](auto& o) {
    o.field("enabled", r.sat_enabled);
    o.field("pass_handovers", r.sat_pass_handovers);
    o.field("obstructions", r.sat_obstructions);
    o.field("outage_ms", r.sat_outage_ms);
    o.field("stall_ms_in_outage", r.sat_stall_ms_in_outage);
  });
  io.field("sim_events", r.sim_events);

  // Observability. Counters and histograms are small and round-trip here;
  // the recorder's event snapshot is exported as a sibling events.jsonl by
  // the artifact store, never inlined into the report document.
  io.object("obs", [&](auto& o) {
    fields(o, r.obs_metrics);
    o.field("enabled", r.obs_enabled);
    o.field("events_recorded", r.obs_events_recorded);
    o.field("events_dropped", r.obs_events_dropped);
  });

  // Pipeline internals.
  io.field("queue_discard_events", r.queue_discard_events);
  io.field("jitter_resyncs", r.jitter_resyncs);
  io.field("scream_misloss_packets", r.scream_misloss_packets);

  // Latency distributions and windows (schema v9).
  io.field("owd_ms", r.owd_ms);
  io.field("playback_latency_ms", r.playback_latency_ms);
  io.field("owd_per_second_ms", r.owd_per_second_ms);
  io.field("playback_latency_per_second_ms", r.playback_latency_per_second_ms);
  io.field("handover_owd_ms", r.handover_owd_ms);

  // Bitrate, capacity and losses (schema v10).
  io.field("target_bitrate_highs_bps", r.target_bitrate_highs_bps);
  io.field("capacity_mbps", r.capacity_mbps);
  io.field("losses_per_second", r.losses_per_second);
  io.field("handovers", r.handovers);

  // Probes.
  io.field("rtt_by_altitude", r.rtt_by_altitude);

  // Command & control.
  io.field("command_latency_ms", r.command_latency_ms);
  io.field("telemetry_latency_ms", r.telemetry_latency_ms);
  io.field("commands_sent", r.commands_sent);
  io.field("telemetry_sent", r.telemetry_sent);
}

json::Value report_to_json(const SessionReport& r) {
  return json::Writer::encode(r);
}

SessionReport report_from_json(const json::Value& v) {
  SessionReport r;
  json::Reader::decode(v, r);
  return r;
}

}  // namespace rpv::pipeline
