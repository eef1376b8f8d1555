#include "pipeline/report_json.hpp"

namespace rpv::pipeline {

namespace {

json::Value doubles_to_json(const std::vector<double>& xs) {
  json::Value a = json::Value::array();
  for (const double x : xs) a.push_back(x);
  return a;
}

std::vector<double> doubles_from_json(const json::Value& v) {
  std::vector<double> out;
  out.reserve(v.items().size());
  for (const auto& x : v.items()) out.push_back(x.as_double());
  return out;
}

// A time series is stored as two parallel arrays ("t_us", "values") — more
// compact than an array of pairs at the row counts traces reach (~1e5).
json::Value series_to_json(const metrics::TimeSeries& ts) {
  json::Value t = json::Value::array();
  json::Value vals = json::Value::array();
  for (const auto& s : ts.samples()) {
    t.push_back(s.t.us());
    vals.push_back(s.value);
  }
  json::Value obj = json::Value::object();
  obj.set("t_us", std::move(t)).set("values", std::move(vals));
  return obj;
}

metrics::TimeSeries series_from_json(const json::Value& v) {
  const auto& t = v.at("t_us").items();
  const auto& vals = v.at("values").items();
  if (t.size() != vals.size()) {
    throw std::runtime_error("report_json: time-series arrays disagree");
  }
  metrics::TimeSeries ts;
  for (std::size_t i = 0; i < t.size(); ++i) {
    ts.add(sim::TimePoint::from_us(t[i].as_i64()), vals[i].as_double());
  }
  return ts;
}

json::Value handovers_to_json(const metrics::HandoverLog& log) {
  json::Value a = json::Value::array();
  for (const auto& e : log.events()) {
    json::Value o = json::Value::object();
    o.set("start_us", e.start.us())
        .set("het_us", e.het.us())
        .set("source_cell", static_cast<std::int64_t>(e.source_cell))
        .set("target_cell", static_cast<std::int64_t>(e.target_cell))
        .set("ping_pong", e.ping_pong);
    a.push_back(std::move(o));
  }
  return a;
}

metrics::HandoverLog handovers_from_json(const json::Value& v) {
  metrics::HandoverLog log;
  for (const auto& o : v.items()) {
    metrics::HandoverEvent e;
    e.start = sim::TimePoint::from_us(o.at("start_us").as_i64());
    e.het = sim::Duration::micros(o.at("het_us").as_i64());
    e.source_cell = static_cast<std::uint32_t>(o.at("source_cell").as_u64());
    e.target_cell = static_cast<std::uint32_t>(o.at("target_cell").as_u64());
    e.ping_pong = o.at("ping_pong").as_bool();
    log.record(e);
  }
  return log;
}

json::Value outcomes_to_json(const std::vector<fault::FaultOutcome>& os) {
  json::Value a = json::Value::array();
  for (const auto& o : os) {
    json::Value j = json::Value::object();
    j.set("at_us", o.event.at.us())
        .set("duration_us", o.event.duration.us())
        .set("kind", static_cast<std::int64_t>(o.event.kind))
        .set("magnitude", o.event.magnitude)
        .set("effective_us", o.effective_duration.us())
        .set("recovery_ms", o.recovery_ms)
        .set("stalls_attributed", static_cast<std::int64_t>(o.stalls_attributed));
    a.push_back(std::move(j));
  }
  return a;
}

std::vector<fault::FaultOutcome> outcomes_from_json(const json::Value& v) {
  std::vector<fault::FaultOutcome> out;
  for (const auto& j : v.items()) {
    fault::FaultOutcome o;
    o.event.at = sim::TimePoint::from_us(j.at("at_us").as_i64());
    o.event.duration = sim::Duration::micros(j.at("duration_us").as_i64());
    o.event.kind = static_cast<fault::FaultKind>(j.at("kind").as_i64());
    o.event.magnitude = j.at("magnitude").as_double();
    o.effective_duration = sim::Duration::micros(j.at("effective_us").as_i64());
    o.recovery_ms = j.at("recovery_ms").as_double();
    o.stalls_attributed = static_cast<int>(j.at("stalls_attributed").as_i64());
    out.push_back(o);
  }
  return out;
}

json::Value pairs_to_json(const std::vector<std::pair<double, double>>& ps) {
  json::Value a = json::Value::array();
  for (const auto& [x, y] : ps) {
    json::Value p = json::Value::array();
    p.push_back(x).push_back(y);
    a.push_back(std::move(p));
  }
  return a;
}

std::vector<std::pair<double, double>> pairs_from_json(const json::Value& v) {
  std::vector<std::pair<double, double>> out;
  for (const auto& p : v.items()) {
    out.emplace_back(p.items().at(0).as_double(), p.items().at(1).as_double());
  }
  return out;
}

}  // namespace

json::Value histogram_to_json(const obs::Histogram& h) {
  json::Value e = json::Value::object();
  e.set("name", h.name).set("edges", doubles_to_json(h.edges));
  json::Value counts = json::Value::array();
  for (const auto c : h.counts) counts.push_back(c);
  e.set("counts", std::move(counts));
  e.set("total", h.total);
  return e;
}

obs::Histogram histogram_from_json(const json::Value& v) {
  obs::Histogram h;
  h.name = v.at("name").as_string();
  h.edges = doubles_from_json(v.at("edges"));
  for (const auto& c : v.at("counts").items()) {
    h.counts.push_back(c.as_u64());
  }
  h.total = v.at("total").as_u64();
  return h;
}

json::Value metrics_summary_to_json(const obs::MetricsSummary& m) {
  json::Value o = json::Value::object();
  json::Value counters = json::Value::array();
  for (const auto& c : m.counters) {
    json::Value e = json::Value::object();
    e.set("name", c.name).set("value", c.value);
    counters.push_back(std::move(e));
  }
  o.set("counters", std::move(counters));
  json::Value hists = json::Value::array();
  for (const auto& h : m.histograms) {
    hists.push_back(histogram_to_json(h));
  }
  o.set("histograms", std::move(hists));
  return o;
}

obs::MetricsSummary metrics_summary_from_json(const json::Value& v) {
  obs::MetricsSummary m;
  for (const auto& e : v.at("counters").items()) {
    obs::Counter c;
    c.name = e.at("name").as_string();
    c.value = e.at("value").as_u64();
    m.counters.push_back(std::move(c));
  }
  for (const auto& e : v.at("histograms").items()) {
    m.histograms.push_back(histogram_from_json(e));
  }
  return m;
}

json::Value report_to_json(const SessionReport& r) {
  json::Value v = json::Value::object();
  v.set("schema", std::int64_t{kReportSchemaVersion});
  v.set("cc_name", r.cc_name);
  v.set("environment", r.environment);
  v.set("duration_us", r.duration.us());

  // Video delivery.
  v.set("goodput_mbps_windows", doubles_to_json(r.goodput_mbps_windows));
  v.set("fps_windows", doubles_to_json(r.fps_windows));
  v.set("ssim_samples", doubles_to_json(r.ssim_samples));
  v.set("stalls_per_minute", r.stalls_per_minute);
  v.set("stall_duration_ms", doubles_to_json(r.stall_duration_ms));
  v.set("frames_encoded", std::uint64_t{r.frames_encoded});
  v.set("frames_played", std::uint64_t{r.frames_played});
  v.set("frames_corrupted", std::uint64_t{r.frames_corrupted});
  v.set("avg_goodput_mbps", r.avg_goodput_mbps);

  // Network.
  v.set("per", r.per);
  v.set("cells_seen", std::uint64_t{r.cells_seen});
  v.set("packets_sent", r.packets_sent);
  v.set("packets_received", r.packets_received);
  v.set("radio_losses", r.radio_losses);
  v.set("buffer_drops", r.buffer_drops);

  // Fault injection & resilience.
  v.set("wan_drops", r.wan_drops);
  v.set("media_losses", r.media_losses);
  v.set("packets_in_flight", r.packets_in_flight);
  v.set("fault_drops", r.fault_drops);
  v.set("faults_injected", r.faults_injected);
  v.set("watchdog_events", r.watchdog_events);
  v.set("pli_sent", r.pli_sent);
  v.set("keyframes_forced", std::uint64_t{r.keyframes_forced});
  v.set("max_ladder_level", std::int64_t{r.max_ladder_level});
  v.set("fault_outcomes", outcomes_to_json(r.fault_outcomes));

  // Prediction & proactive adaptation.
  {
    const auto& p = r.prediction;
    json::Value o = json::Value::object();
    o.set("enabled", p.enabled)
        .set("proactive", p.proactive)
        .set("ho_predicted", p.ho_predicted)
        .set("ho_true_positives", p.ho_true_positives)
        .set("ho_false_positives", p.ho_false_positives)
        .set("ho_missed", p.ho_missed)
        .set("ho_lead_time_ms", doubles_to_json(p.ho_lead_time_ms))
        .set("capacity_mae_mbps", p.capacity_mae_mbps)
        .set("capacity_samples", p.capacity_samples)
        .set("dip_windows", p.dip_windows)
        .set("keyframes_deferred", p.keyframes_deferred)
        .set("proactive_flushes", p.proactive_flushes)
        .set("predictive_switches", p.predictive_switches)
        .set("map_prior", p.map_prior)
        .set("map_prior_arms", p.map_prior_arms);
    v.set("prediction", std::move(o));
  }

  // Connectivity-aware flight planning (rpv::uav, schema v7).
  {
    json::Value o = json::Value::object();
    o.set("planned", r.planned)
        .set("replanned", r.plan_replanned)
        .set("candidates", std::uint64_t{r.plan_candidates})
        .set("selected", std::uint64_t{r.plan_selected})
        .set("predicted_stall_ms_direct", r.plan_predicted_stall_ms_direct)
        .set("predicted_stall_ms_selected", r.plan_predicted_stall_ms_selected)
        .set("deviation_m", r.plan_deviation_m);
    v.set("planning", std::move(o));
  }

  // Bonded link management (schema v4; per-path breakdown since v6).
  {
    json::Value o = json::Value::object();
    o.set("policy", r.bond_policy)
        .set("path_switches", r.bond_path_switches)
        .set("class_preemptions", r.bond_class_preemptions)
        .set("fec_rate_changes", r.bond_fec_rate_changes)
        .set("reorder_flushes", r.bond_reorder_flushes)
        .set("duplicates_suppressed", r.bond_duplicates_suppressed)
        .set("fec_recovered", r.bond_fec_recovered)
        .set("airtime_bytes", r.bond_airtime_bytes)
        .set("media_bytes", r.bond_media_bytes);
    json::Value paths = json::Value::array();
    for (const auto& p : r.bond_paths) {
      json::Value e = json::Value::object();
      e.set("kind", p.kind)
          .set("sent_packets", p.sent_packets)
          .set("delivered_packets", p.delivered_packets)
          .set("lost_packets", p.lost_packets)
          .set("airtime_bytes", p.airtime_bytes);
      paths.push_back(std::move(e));
    }
    o.set("paths", std::move(paths));
    v.set("bond", std::move(o));
  }

  // LEO satellite / mesh path (schema v6).
  {
    json::Value o = json::Value::object();
    o.set("enabled", r.sat_enabled)
        .set("pass_handovers", r.sat_pass_handovers)
        .set("obstructions", r.sat_obstructions)
        .set("outage_ms", r.sat_outage_ms)
        .set("stall_ms_in_outage", r.sat_stall_ms_in_outage);
    v.set("sat", std::move(o));
  }
  v.set("sim_events", r.sim_events);

  // Observability. Counters and histograms are small and round-trip here;
  // the recorder's event snapshot is exported as a sibling events.jsonl by
  // the artifact store, never inlined into the report document.
  {
    json::Value o = metrics_summary_to_json(r.obs_metrics);
    o.set("enabled", r.obs_enabled)
        .set("events_recorded", r.obs_events_recorded)
        .set("events_dropped", r.obs_events_dropped);
    v.set("obs", std::move(o));
  }

  // Pipeline internals.
  v.set("queue_discard_events", r.queue_discard_events);
  v.set("jitter_resyncs", r.jitter_resyncs);
  v.set("scream_misloss_packets", r.scream_misloss_packets);

  // Traces.
  v.set("owd_trace_ms", series_to_json(r.owd_trace_ms));
  v.set("playback_latency_trace_ms", series_to_json(r.playback_latency_trace_ms));
  v.set("target_bitrate_trace_bps", series_to_json(r.target_bitrate_trace_bps));
  v.set("capacity_trace_mbps", series_to_json(r.capacity_trace_mbps));
  {
    json::Value times = json::Value::array();
    for (const auto& t : r.loss_times) times.push_back(t.us());
    v.set("loss_times_us", std::move(times));
  }
  v.set("handovers", handovers_to_json(r.handovers));

  // Probes.
  v.set("rtt_by_altitude", pairs_to_json(r.rtt_by_altitude));

  // Command & control.
  v.set("command_latency_ms", doubles_to_json(r.command_latency_ms));
  v.set("telemetry_latency_ms", doubles_to_json(r.telemetry_latency_ms));
  v.set("commands_sent", r.commands_sent);
  v.set("telemetry_sent", r.telemetry_sent);
  return v;
}

SessionReport report_from_json(const json::Value& v) {
  const auto schema = v.at("schema").as_i64();
  if (schema != kReportSchemaVersion) {
    throw std::runtime_error("report_json: unsupported schema version " +
                             std::to_string(schema));
  }
  SessionReport r;
  r.cc_name = v.at("cc_name").as_string();
  r.environment = v.at("environment").as_string();
  r.duration = sim::Duration::micros(v.at("duration_us").as_i64());

  r.goodput_mbps_windows = doubles_from_json(v.at("goodput_mbps_windows"));
  r.fps_windows = doubles_from_json(v.at("fps_windows"));
  r.ssim_samples = doubles_from_json(v.at("ssim_samples"));
  r.stalls_per_minute = v.at("stalls_per_minute").as_double();
  r.stall_duration_ms = doubles_from_json(v.at("stall_duration_ms"));
  r.frames_encoded = static_cast<std::uint32_t>(v.at("frames_encoded").as_u64());
  r.frames_played = static_cast<std::uint32_t>(v.at("frames_played").as_u64());
  r.frames_corrupted =
      static_cast<std::uint32_t>(v.at("frames_corrupted").as_u64());
  r.avg_goodput_mbps = v.at("avg_goodput_mbps").as_double();

  r.per = v.at("per").as_double();
  r.cells_seen = static_cast<std::size_t>(v.at("cells_seen").as_u64());
  r.packets_sent = v.at("packets_sent").as_u64();
  r.packets_received = v.at("packets_received").as_u64();
  r.radio_losses = v.at("radio_losses").as_u64();
  r.buffer_drops = v.at("buffer_drops").as_u64();

  r.wan_drops = v.at("wan_drops").as_u64();
  r.media_losses = v.at("media_losses").as_u64();
  r.packets_in_flight = v.at("packets_in_flight").as_i64();
  r.fault_drops = v.at("fault_drops").as_u64();
  r.faults_injected = v.at("faults_injected").as_u64();
  r.watchdog_events = v.at("watchdog_events").as_u64();
  r.pli_sent = v.at("pli_sent").as_u64();
  r.keyframes_forced = static_cast<std::uint32_t>(v.at("keyframes_forced").as_u64());
  r.max_ladder_level = static_cast<int>(v.at("max_ladder_level").as_i64());
  r.fault_outcomes = outcomes_from_json(v.at("fault_outcomes"));

  {
    const auto& o = v.at("prediction");
    auto& p = r.prediction;
    p.enabled = o.at("enabled").as_bool();
    p.proactive = o.at("proactive").as_bool();
    p.ho_predicted = o.at("ho_predicted").as_u64();
    p.ho_true_positives = o.at("ho_true_positives").as_u64();
    p.ho_false_positives = o.at("ho_false_positives").as_u64();
    p.ho_missed = o.at("ho_missed").as_u64();
    p.ho_lead_time_ms = doubles_from_json(o.at("ho_lead_time_ms"));
    p.capacity_mae_mbps = o.at("capacity_mae_mbps").as_double();
    p.capacity_samples = o.at("capacity_samples").as_u64();
    p.dip_windows = o.at("dip_windows").as_u64();
    p.keyframes_deferred = o.at("keyframes_deferred").as_u64();
    p.proactive_flushes = o.at("proactive_flushes").as_u64();
    p.predictive_switches = o.at("predictive_switches").as_u64();
    p.map_prior = o.at("map_prior").as_bool();
    p.map_prior_arms = o.at("map_prior_arms").as_u64();
  }

  {
    const auto& o = v.at("planning");
    r.planned = o.at("planned").as_bool();
    r.plan_replanned = o.at("replanned").as_bool();
    r.plan_candidates = static_cast<std::uint32_t>(o.at("candidates").as_u64());
    r.plan_selected = static_cast<std::uint32_t>(o.at("selected").as_u64());
    r.plan_predicted_stall_ms_direct =
        o.at("predicted_stall_ms_direct").as_double();
    r.plan_predicted_stall_ms_selected =
        o.at("predicted_stall_ms_selected").as_double();
    r.plan_deviation_m = o.at("deviation_m").as_double();
  }

  {
    const auto& o = v.at("bond");
    r.bond_policy = o.at("policy").as_string();
    r.bond_path_switches = o.at("path_switches").as_u64();
    r.bond_class_preemptions = o.at("class_preemptions").as_u64();
    r.bond_fec_rate_changes = o.at("fec_rate_changes").as_u64();
    r.bond_reorder_flushes = o.at("reorder_flushes").as_u64();
    r.bond_duplicates_suppressed = o.at("duplicates_suppressed").as_u64();
    r.bond_fec_recovered = o.at("fec_recovered").as_u64();
    r.bond_airtime_bytes = o.at("airtime_bytes").as_u64();
    r.bond_media_bytes = o.at("media_bytes").as_u64();
    for (const auto& e : o.at("paths").items()) {
      PathBreakdown p;
      p.kind = e.at("kind").as_string();
      p.sent_packets = e.at("sent_packets").as_u64();
      p.delivered_packets = e.at("delivered_packets").as_u64();
      p.lost_packets = e.at("lost_packets").as_u64();
      p.airtime_bytes = e.at("airtime_bytes").as_u64();
      r.bond_paths.push_back(std::move(p));
    }
  }

  {
    const auto& o = v.at("sat");
    r.sat_enabled = o.at("enabled").as_bool();
    r.sat_pass_handovers = o.at("pass_handovers").as_u64();
    r.sat_obstructions = o.at("obstructions").as_u64();
    r.sat_outage_ms = o.at("outage_ms").as_double();
    r.sat_stall_ms_in_outage = o.at("stall_ms_in_outage").as_double();
  }
  r.sim_events = v.at("sim_events").as_u64();

  {
    const auto& o = v.at("obs");
    r.obs_enabled = o.at("enabled").as_bool();
    r.obs_events_recorded = o.at("events_recorded").as_u64();
    r.obs_events_dropped = o.at("events_dropped").as_u64();
    r.obs_metrics = metrics_summary_from_json(o);
  }

  r.queue_discard_events = v.at("queue_discard_events").as_u64();
  r.jitter_resyncs = v.at("jitter_resyncs").as_u64();
  r.scream_misloss_packets = v.at("scream_misloss_packets").as_u64();

  r.owd_trace_ms = series_from_json(v.at("owd_trace_ms"));
  r.playback_latency_trace_ms =
      series_from_json(v.at("playback_latency_trace_ms"));
  r.target_bitrate_trace_bps = series_from_json(v.at("target_bitrate_trace_bps"));
  r.capacity_trace_mbps = series_from_json(v.at("capacity_trace_mbps"));
  for (const auto& t : v.at("loss_times_us").items()) {
    r.loss_times.push_back(sim::TimePoint::from_us(t.as_i64()));
  }
  r.handovers = handovers_from_json(v.at("handovers"));

  r.rtt_by_altitude = pairs_from_json(v.at("rtt_by_altitude"));

  r.command_latency_ms = doubles_from_json(v.at("command_latency_ms"));
  r.telemetry_latency_ms = doubles_from_json(v.at("telemetry_latency_ms"));
  r.commands_sent = v.at("commands_sent").as_u64();
  r.telemetry_sent = v.at("telemetry_sent").as_u64();
  return r;
}

}  // namespace rpv::pipeline
