// rpv_perfbench — the repository benchmark's measuring process.
//
//   rpv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--work-dir DIR] [--git-describe TEXT]
//   rpv_perfbench --replay-check [--seed N]
//
// One process runs one workload at one worker: timed batches of repeated
// set-ups, then a fixed number of closed-loop iterations of the whole
// workload (the time budget only stops a run that overruns it). Every
// timing is process CPU time (see perfbench::CpuClock) divided by the
// host's slowness measured around it (see perfbench::HostGauge), and every
// one reported is the median of its repeats. With --trace 0 the last stdout line
// holds the end-to-end metrics; with --trace 1 iterations alternate
// untraced and traced (a MetricsRegistry subscribed to every session plus
// per-report JSON spans), the layer replays run, and the last line holds the
// per-layer ledger. Exit status: 0 when every output check passed, 1 when
// one failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gauge.hpp"
#include "ledger.hpp"
#include "replays.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Timed set-up batches before the first iteration and after each one;
// setup_s is the median of all of them.
constexpr int kSetupBatchesPerRound = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool replay_check = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_describe = "unknown";
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "rpv_perfbench: " << why << "\n"
            << "usage: rpv_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR]\n"
            << "       rpv_perfbench --replay-check [--seed N]\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    usage_error("bad value for " + flag + ": '" + text + "'");
  }
  if (used != text.size()) usage_error("bad value for " + flag + ": '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      const auto s = parse_int(arg, value());
      if (s < 0) usage_error("--seed must be >= 0");
      o.seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--seconds") {
      const auto s = parse_int(arg, value());
      if (s <= 0) usage_error("--seconds must be > 0");
      o.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      const auto t = parse_int(arg, value());
      if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--replay-check") {
      o.replay_check = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--git-describe") {
      o.git_describe = value();
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (!o.replay_check) {
    if (!have_workload) usage_error("--workload is required");
    bool known = false;
    for (const auto& n : workload_names()) known = known || n == o.workload;
    if (!known) usage_error("unknown workload '" + o.workload + "'");
  }
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
double median_of(const std::vector<IterationResult>& its, bool traced, F f) {
  std::vector<double> v;
  for (const auto& it : its) {
    if (it.traced == traced) v.push_back(f(it));
  }
  return median(v);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

// One mode's phase times: each simulation unit's median time across
// iterations, summed, and each artifact phase's median time. A noise burst
// then moves only the unit it hit, and only if it hit most repeats.
struct Phases {
  double run_s = 0, write_s = 0, load_s = 0, pool_s = 0;
  [[nodiscard]] double wall_s() const { return run_s + write_s + load_s + pool_s; }
  [[nodiscard]] double rerender_s() const { return load_s + pool_s; }
};

// With `raw`, the units count in CPU time as measured.
Phases phases_of(const std::vector<IterationResult>& its, bool traced,
                 bool raw = false) {
  std::vector<std::vector<double>> units;
  for (const auto& it : its) {
    if (it.traced != traced) continue;
    units.resize(std::max(units.size(), it.unit_run_s.size()));
    for (std::size_t u = 0; u < it.unit_run_s.size(); ++u) {
      units[u].push_back(it.unit_run_s[u] * (raw ? it.unit_slowness[u] : 1.0));
    }
  }
  Phases p;
  for (const auto& u : units) p.run_s += median(u);
  p.write_s = median_of(its, traced, [](const IterationResult& r) { return r.write_s; });
  p.load_s = median_of(its, traced, [](const IterationResult& r) { return r.load_s; });
  p.pool_s = median_of(its, traced, [](const IterationResult& r) { return r.pool_s; });
  return p;
}

// Replays run on the environment the workload flies most.
rpv::experiment::Environment replay_env(const std::string& workload) {
  return workload == "bond_sat_storm" ? rpv::experiment::Environment::kRuralP1
                                      : rpv::experiment::Environment::kUrban;
}

int replay_check(const Options& o) {
  ReplayInput in;
  in.seed = o.seed + 1;
  in.scale = 0.05;
  const auto a = run_replays(in);
  const auto b = run_replays(in);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].metric == b[i].metric && a[i].checksum == b[i].checksum &&
           a[i].ops == b[i].ops && a[i].sim_events == b[i].sim_events;
    std::cout << a[i].metric << " ops " << a[i].ops << " checksum "
              << hex64(a[i].checksum) << (same ? "" : " MISMATCH") << "\n";
  }
  std::cout << (same ? "replays deterministic" : "replays NOT deterministic")
            << "\n";
  return same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  const Options o = parse(argc, argv);
  if (o.replay_check) return replay_check(o);

  const std::filesystem::path work_dir = o.work_dir;
  auto workload = make_workload(o.workload, o.seed, o.tiny, work_dir);
  SpanRecorder spans{origin};
  HostGauge gauge;

  std::cout << "meta {\"workload\":" << quoted(o.workload)
            << ",\"seed\":" << o.seed << ",\"inputs\":" << quoted(workload->describe())
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"jobs\":1,\"compiler\":" << quoted(RPV_PERFBENCH_COMPILER)
            << ",\"build_type\":" << quoted(RPV_PERFBENCH_BUILD_TYPE)
            << ",\"git_describe\":" << quoted(o.git_describe)
            << ",\"seconds\":" << number(o.seconds)
            << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"tiny\":" << (o.tiny ? 1 : 0)
            << "}\n";

  // --- set-up, timed in rounds of batches: one round before the first
  // simulation call and one after each iteration, so the median samples
  // the whole run. One set-up takes microseconds, so each sample is a
  // batch's CPU time divided by its set-ups.
  std::vector<double> setup_total, setup_experiment, setup_plan;
  auto setup_round = [&] {
    SpanScope span{spans, "setup", -1, false};
    const int batches = o.tiny ? 3 : kSetupBatchesPerRound;
    const int per_batch = o.tiny ? 1 : workload->setup_batch();
    std::vector<SetupResult> round(static_cast<std::size_t>(batches));
    gauge.mark();
    for (auto& batch : round) {
      for (int k = 0; k < per_batch; ++k) {
        const auto r = workload->setup();
        batch.experiment_s += r.experiment_s;
        batch.plan_s += r.plan_s;
      }
    }
    // Per set-up, at reference host speed.
    const double per = gauge.settle() * per_batch;
    for (const auto& batch : round) {
      setup_total.push_back((batch.experiment_s + batch.plan_s) / per);
      setup_experiment.push_back(batch.experiment_s / per);
      setup_plan.push_back(batch.plan_s / per);
    }
  };
  setup_round();

  // --- a fixed number of closed-loop iterations ---
  // A traced run alternates untraced and traced iterations, the same total
  // count and at least one of each. The wall-clock budget, counted from
  // process start (a traced run keeps a few seconds of it for the layer
  // replays that follow), only stops a run that would overrun it.
  const double budget_s = o.seconds - (o.trace ? 5.0 : 0.0);
  const int min_iterations = o.trace ? 2 : 1;
  const int planned =
      o.tiny ? min_iterations : std::max(min_iterations, workload->iterations());
  std::vector<IterationResult> its;
  std::vector<double> wall_clock_s;  // per iteration, printed for reference
  std::vector<std::string> errors;
  const auto loop_start = Clock::now();
  for (int i = 0; i < planned; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    try {
      const auto wall_start = Clock::now();
      its.push_back(workload->iterate(i, traced, spans, gauge));
      wall_clock_s.push_back(seconds_since<Clock>(wall_start));
    } catch (const std::exception& e) {
      errors.push_back("iteration " + std::to_string(i) + " threw: " + e.what());
      break;
    }
    if (!o.tiny) setup_round();
    const double per_iteration =
        seconds_since<Clock>(loop_start) / static_cast<double>(i + 1);
    if (i + 1 >= min_iterations && i + 1 < planned &&
        seconds_since<Clock>(origin) + per_iteration > budget_s) {
      std::cout << "budget: stopped after " << i + 1 << " of " << planned
                << " iterations\n";
      break;
    }
  }
  const double rss_mb = peak_rss_mb();

  // --- correctness ---
  long long attempted = 0, failed = 0;
  for (const auto& it : its) {
    attempted += it.runs;
    failed += it.failed_runs;
    for (const auto& f : it.failures) errors.push_back(f);
  }
  // Identical inputs must give identical bytes, traced or not.
  for (const auto& it : its) {
    if (it.digest != its.front().digest) {
      errors.push_back("output digest differs between iterations (" +
                       hex64(it.digest) + " vs " + hex64(its.front().digest) + ")");
      failed += it.runs - it.failed_runs;
    }
  }
  if (attempted == 0) attempted = 1;

  std::vector<Metric> metrics;
  const double setup_s = median(setup_total);
  const IterationResult first = its.empty() ? IterationResult{} : its.front();

  const Phases plain = phases_of(its, false);
  if (!o.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"wall_s", plain.wall_s(), "s"},
        {"sim_events_per_s", safe_ratio(first.sim_events, plain.run_s), "events/s"},
        {"realtime_factor", safe_ratio(first.uav_seconds, plain.run_s), "x"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"artifact_bytes_per_run", safe_ratio(first.artifact_bytes, first.runs), "bytes"},
        {"rerender_s", plain.rerender_s(), "s"},
    };
  } else {
    auto traced = [&](auto f) { return median_of(its, true, f); };
    LayerCounts c;
    for (const auto& it : its) {
      if (it.traced) c = it.counts;
    }
    ReplayInput in;
    in.seed = o.seed + 1;
    in.packet_bytes = c.packets_received > 0 ? c.goodput_bytes / c.packets_received : 1100.0;
    in.packet_rate_pps = c.uav_seconds > 0 ? c.packets_sent / c.uav_seconds : 900.0;
    if (!(in.packet_bytes > 100.0)) in.packet_bytes = 1100.0;
    if (!(in.packet_rate_pps > 50.0)) in.packet_rate_pps = 900.0;
    in.env = replay_env(o.workload);
    in.scale = o.tiny ? 0.05 : 1.0;
    std::vector<ReplayResult> replays;
    {
      SpanScope s{spans, "replays", -1, true};
      gauge.mark();
      replays = run_replays(in);
      const double slow = gauge.settle();
      for (auto& r : replays) r.ns_per_op /= slow;
    }
    auto cost = [&](const std::string& name) {
      for (const auto& r : replays) {
        if (r.metric == name) return r.ns_per_op;
      }
      return 0.0;
    };
    // A layer's own cost: its replay's per-op cost without the engine
    // events the replay itself ran, priced at the steady queue cost (the
    // sim layer is charged those once, per workload event).
    auto self_cost = [&](const std::string& name) {
      for (const auto& r : replays) {
        if (r.metric == name) {
          return r.ns_per_op - safe_ratio(static_cast<double>(r.sim_events),
                                          static_cast<double>(r.ops)) *
                                   cost("sim.queue.ns_per_event");
        }
      }
      return 0.0;
    };
    for (const auto& r : replays) {
      std::cout << "replay " << r.metric << " ops " << r.ops << " events "
                << r.sim_events << " ns/op " << number(r.ns_per_op) << " checksum "
                << hex64(r.checksum) << "\n";
    }

    const double ns_per_event = safe_ratio(1e9 * plain.run_s, c.sim_events);
    const double attributed =
        cost("sim.queue.ns_per_event") +
        safe_ratio(self_cost("cellular.link_queue.ns_per_packet") * c.link_enqueued +
                       self_cost("cellular.radio_model.ns_per_capacity_call") * c.measurements +
                       self_cost("cc.gcc.ns_per_feedback") * c.gcc_feedbacks +
                       self_cost("cc.scream.ns_per_feedback") * c.scream_feedbacks +
                       self_cost("rtp.jitter_buffer.ns_per_packet") * c.packets_received +
                       self_cost("rtp.packetizer.ns_per_frame") * c.frames_encoded +
                       self_cost("rtp.fec.ns_per_packet") * c.fec_packets +
                       self_cost("bond.reorder_window.ns_per_packet") * c.bond_delivered +
                       self_cost("obs.recorder.ns_per_event") * c.obs_recorded,
                   c.sim_events);
    const double runs = std::max(1.0, c.runs);

    metrics = {
        {"experiment.setup_ms", 1e3 * median(setup_experiment), "ms"},
        {"fleet.plan_s", median(setup_plan), "s"},
        {"exec.run_s", plain.run_s, "s"},
        {"exec.write_campaign_s", plain.write_s, "s"},
        {"exec.load_campaign_s", plain.load_s, "s"},
        {"json.report_dump_ms", traced([](const IterationResult& r) { return r.report_dump_ms; }), "ms"},
        {"json.report_parse_ms", traced([](const IterationResult& r) { return r.report_parse_ms; }), "ms"},
        {"json.dump_ns_per_byte", traced([](const IterationResult& r) { return r.dump_ns_per_byte; }), "ns/B"},
        {"pipeline.report_bytes", c.report_bytes / runs, "bytes"},
        {"pipeline.packets_sent", c.packets_sent, "count"},
        {"pipeline.packets_received", c.packets_received, "count"},
        {"pipeline.delivery_ratio", safe_ratio(c.packets_received, c.packets_sent), "1"},
        {"pipeline.frames_encoded", c.frames_encoded, "count"},
        {"pipeline.frames_decoded", c.frames_decoded, "count"},
        {"pipeline.stalls", c.stalls, "count"},
        {"pipeline.scream_queue_discards", c.scream_queue_discards, "count"},
        {"metrics.pool_s", plain.pool_s, "s"},
        {"sim.events", c.sim_events, "count"},
        {"sim.queue.ns_per_event", cost("sim.queue.ns_per_event"), "ns"},
        {"sim.queue.cancel_ns_per_event", cost("sim.queue.cancel_ns_per_event"), "ns"},
        {"sim.queue.overflow_ns_per_event", cost("sim.queue.overflow_ns_per_event"), "ns"},
        {"sim.unattributed_ns_per_event", ns_per_event - attributed, "ns"},
        {"cellular.link_queue.enqueued", c.link_enqueued, "count"},
        {"cellular.link_queue.drops", c.link_drops, "count"},
        {"cellular.link_queue.ns_per_packet", cost("cellular.link_queue.ns_per_packet"), "ns"},
        {"cellular.radio_model.ns_per_capacity_call",
         cost("cellular.radio_model.ns_per_capacity_call"), "ns"},
        {"cellular.handovers", c.handovers, "count"},
        {"cellular.rlf", c.rlf, "count"},
        {"cellular.measurements", c.measurements, "count"},
        {"net.wan.drops", c.wan_drops, "count"},
        {"cc.gcc.ns_per_feedback", cost("cc.gcc.ns_per_feedback"), "ns"},
        {"cc.scream.ns_per_feedback", cost("cc.scream.ns_per_feedback"), "ns"},
        {"cc.target_rate_changes", c.target_rate_changes, "count"},
        {"rtp.jitter_buffer.ns_per_packet", cost("rtp.jitter_buffer.ns_per_packet"), "ns"},
        {"rtp.packetizer.ns_per_frame", cost("rtp.packetizer.ns_per_frame"), "ns"},
        {"rtp.fec.ns_per_packet", cost("rtp.fec.ns_per_packet"), "ns"},
        {"bond.airtime_ratio", safe_ratio(c.bond_airtime_bytes, c.bond_media_bytes), "1"},
        {"bond.duplicates_suppressed", c.duplicates_suppressed, "count"},
        {"bond.reorder_flushes", c.reorder_flushes, "count"},
        {"bond.path_switches", c.path_switches, "count"},
        {"bond.fec_retunes", c.fec_retunes, "count"},
        {"bond.reorder_window.ns_per_packet", cost("bond.reorder_window.ns_per_packet"), "ns"},
        {"sat.pass_handovers", c.sat_pass_handovers, "count"},
        {"sat.obstructions", c.sat_obstructions, "count"},
        {"sat.delivered_share", safe_ratio(c.sat_delivered, c.bond_delivered), "1"},
        {"obs.events_recorded", c.obs_recorded, "count"},
        {"obs.events_dropped", c.obs_dropped, "count"},
        {"obs.recorder.ns_per_event", cost("obs.recorder.ns_per_event"), "ns"},
        {"obs.events_jsonl_bytes_per_run", c.events_jsonl_bytes / runs, "bytes"},
        {"trace.overhead_ratio", safe_ratio(phases_of(its, true).wall_s(), plain.wall_s()),
         "1"},
    };

    std::filesystem::create_directories(work_dir);
    const auto span_file =
        work_dir / (o.workload + "-seed" + std::to_string(o.seed) + ".spans.jsonl");
    if (spans.write_jsonl(span_file.string())) {
      std::cout << "spans " << spans.spans().size() << " written to "
                << span_file.string() << "\n";
    } else {
      errors.push_back("cannot write " + span_file.string());
    }
  }

  // --- report ---
  if (!errors.empty() && failed == 0) failed = attempted;
  const bool correct = errors.empty();
  for (std::size_t i = 0; i < its.size(); ++i) {
    const auto& it = its[i];
    std::cout << "iteration " << i << (it.traced ? " traced" : " untraced")
              << " runs " << it.runs << " failed " << it.failed_runs << " run_s "
              << number(sum(it.unit_run_s)) << " write_s " << number(it.write_s)
              << " load_s " << number(it.load_s) << " pool_s " << number(it.pool_s)
              << " digest " << hex64(it.digest) << " wall_clock_s "
              << number(i < wall_clock_s.size() ? wall_clock_s[i] : 0.0) << " units";
    for (const double u : it.unit_run_s) std::cout << " " << number(u);
    std::cout << " slowness";
    for (const double s : it.unit_slowness) std::cout << " " << number(s);
    std::cout << "\n";
  }
  const Phases raw = phases_of(its, false, true);
  std::cout << "raw run_s " << number(raw.run_s) << " sim_events_per_s "
            << number(safe_ratio(first.sim_events, raw.run_s)) << " gauge samples "
            << gauge.samples().size() << " median_s "
            << number(median(gauge.samples())) << "\n";
  std::cout << "digest " << o.workload << " "
            << (its.empty() ? std::string{"none"} : hex64(its.front().digest)) << "\n";
  std::cout << "failed_run_ratio " << number(static_cast<double>(failed) / attempted)
            << " (" << failed << " of " << attempted << " runs)\n";
  for (const auto& e : errors) std::cout << "check failed: " << e << "\n";
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
