#include "workloads.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "bond/policy.hpp"
#include "checks.hpp"
#include "exec/campaign_engine.hpp"
#include "exec/run_artifact.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/fleet_report.hpp"
#include "json/json.hpp"
#include "obs/metrics_registry.hpp"
#include "pipeline/report_json.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using namespace rpv;
namespace fs = std::filesystem;

std::string read_bytes(const fs::path& p) {
  auto text = json::read_file(p.string());
  if (!text) throw std::runtime_error("cannot read " + p.string());
  return std::move(*text);
}

std::uint64_t fnv_of(std::string_view bytes) {
  Fnv1a h;
  h.add(bytes);
  return h.value();
}

void add_registry_counts(LayerCounts& c, const obs::MetricsSummary& m) {
  using K = obs::EventKind;
  c.frames_encoded += kind_total(m, K::kFrameEncoded);
  c.frames_decoded += kind_total(m, K::kFrameDecoded);
  c.stalls += kind_total(m, K::kStall);
  c.link_enqueued += kind_total(m, K::kQueueEnqueue);
  c.link_drops += kind_total(m, K::kQueueDrop);
  c.handovers += kind_total(m, K::kHandoverStart);
  c.rlf += kind_total(m, K::kRlf);
  c.measurements += kind_total(m, K::kLinkMeasurement);
  c.wan_drops += kind_total(m, K::kWanDrop);
  c.target_rate_changes += kind_total(m, K::kTargetRate);
}

// Feedback reports a flight of `seconds` delivers to its controller.
double feedbacks(const pipeline::SessionConfig& cfg, double seconds) {
  switch (cfg.receiver.feedback) {
    case pipeline::FeedbackKind::kTwcc:
      return seconds / cfg.receiver.twcc_interval.sec();
    case pipeline::FeedbackKind::kRfc8888:
      return seconds / cfg.receiver.rfc8888_interval.sec();
    case pipeline::FeedbackKind::kNone: return 0.0;
  }
  return 0.0;
}

void add_feedbacks(LayerCounts& c, const pipeline::SessionConfig& cfg,
                   double seconds) {
  if (cfg.cc == pipeline::CcKind::kGcc) c.gcc_feedbacks += feedbacks(cfg, seconds);
  if (cfg.cc == pipeline::CcKind::kScream)
    c.scream_feedbacks += feedbacks(cfg, seconds);
}

bool runs_fec(const experiment::Scenario& s) {
  return s.fec_group_size > 0 ||
         (s.multipath != experiment::Multipath::kNone &&
          bond::uses_fec(experiment::bond_policy_of(s.multipath)));
}

// The traced run's MetricsRegistry, subscribed for every kind but
// kHandoverEnd: wanting that kind makes CellularLink schedule one extra
// engine event per handover, which would change the report's sim_events
// and with it the output digest.
class RegistryTap final : public obs::EventSink {
 public:
  explicit RegistryTap(obs::MetricsRegistry& registry) : registry_{registry} {}
  void on_event(const obs::Event& e) override { registry_.on_event(e); }
  [[nodiscard]] std::uint64_t interest_mask() const override {
    return obs::kAllKinds & ~obs::kind_bit(obs::EventKind::kHandoverEnd);
  }

 private:
  obs::MetricsRegistry& registry_;
};

// Records a failed output check against one run (or, with run < 0, every
// run of the iteration).
void fail(IterationResult& it, std::vector<bool>& failed, int run,
          std::string why) {
  it.failures.push_back(std::move(why));
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (run < 0 || static_cast<int>(i) == run) failed[i] = true;
  }
}

// Set-up is timed over kSetupDraws input draws (the run's seed and seeds
// kDrawStride apart) and reported per draw, so set-up time follows the
// workload rather than one seed's layouts.
constexpr int kSetupDraws = 8;
constexpr std::uint64_t kDrawStride = 100'003;

// Records one unit's simulation time, stated at reference host speed.
void add_unit(IterationResult& it, double cpu_s, HostGauge& gauge) {
  const double slow = gauge.settle();
  it.unit_slowness.push_back(slow);
  it.unit_run_s.push_back(cpu_s / slow);
}

struct CampaignSpec {
  std::string name;
  exec::GridAxes axes;
  experiment::Scenario base;
  int runs_per_cell = 1;
  std::uint64_t base_seed = 0;
  int iterations = 1;
  int setup_batch = 1;
  bool single_path = false;  // packet conservation applies to every run
  bool sat_arms = false;     // three-way must stall less than operator-pair
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(CampaignSpec spec, fs::path work_dir)
      : spec_{std::move(spec)},
        work_dir_{std::move(work_dir)},
        cells_{exec::expand_grid(spec_.axes, spec_.base)} {}

  SetupResult setup() const override {
    SetupResult out;
    for (int draw = 0; draw < kSetupDraws; ++draw) {
      const auto r = setup_draw(draw);
      out.experiment_s += r.experiment_s / kSetupDraws;
      out.plan_s += r.plan_s / kSetupDraws;
    }
    return out;
  }

  // One set-up of input draw `draw`.
  SetupResult setup_draw(int draw) const {
    const auto t0 = CpuClock::now();
    std::vector<experiment::Scenario> scenarios;
    for (const auto& cell : exec::expand_grid(spec_.axes, spec_.base)) {
      for (const auto seed : seeds_of(cell, draw)) {
        experiment::Scenario s = cell.scenario;
        s.seed = seed;
        experiment::make_session_config(s).validate();
        scenarios.push_back(std::move(s));
      }
    }
    const auto t1 = CpuClock::now();
    double sink = 0.0;
    for (const auto& s : scenarios) {
      sim::Rng rng{s.seed};
      sink += static_cast<double>(experiment::make_layout(s, rng).size());
      if (s.multipath != experiment::Multipath::kNone)
        sink += static_cast<double>(experiment::make_layout(s, rng).size());
      sink += experiment::make_trajectory(s, rng).duration().sec();
    }
    SetupResult out;
    out.experiment_s = seconds_between<CpuClock>(t0, t1);
    out.plan_s = seconds_since(t1);
    if (sink < 0.0) throw std::logic_error("negative mission size");
    return out;
  }

  int setup_batch() const override { return spec_.setup_batch; }
  int iterations() const override { return spec_.iterations; }

  IterationResult iterate(int iteration, bool traced, SpanRecorder& spans,
                          HostGauge& gauge) override {
    IterationResult it;
    it.traced = traced;
    SpanScope whole{spans, spec_.name, iteration, traced};
    std::vector<bool> failed(
        cells_.size() * static_cast<std::size_t>(spec_.runs_per_cell), false);

    // The grid of CampaignEngine::run_grid, one flight per call (same seeds,
    // same order) so each flight's simulation time is its own sample.
    // Traced flights run through run_scenario with a registry of their own,
    // as run_scenarios_merged keeps them, then fold into the iteration's.
    obs::MetricsRegistry registry;
    exec::GridResult grid;
    grid.jobs = 1;
    int run = 0;
    gauge.mark();
    for (const auto& cell : cells_) {
      exec::GridCellResult cr;
      cr.cell = cell;
      for (const auto seed : seeds_of(cell)) {
        SpanScope s{spans, "exec.run", iteration, traced};
        if (traced) {
          obs::MetricsRegistry own;
          RegistryTap tap{own};
          experiment::Scenario sc = cell.scenario;
          sc.seed = seed;
          cr.reports.push_back(experiment::run_scenario(sc, &tap));
          add_unit(it, s.stop(), gauge);
          if (spec_.single_path) {
            const auto why = check_packet_events(cr.reports.back(), own.summary());
            if (!why.empty()) fail(it, failed, run, cell.label + ": " + why);
          }
          registry.merge(own);
        } else {
          auto one = exec::CampaignEngine{{.jobs = 1}}.run_grid({cell}, 1, seed);
          add_unit(it, s.stop(), gauge);
          cr.reports.push_back(std::move(one.cells.front().reports.front()));
        }
        cr.seeds.push_back(seed);
        ++run;
      }
      grid.cells.push_back(std::move(cr));
    }

    std::vector<const experiment::Scenario*> scenario_of;
    std::vector<std::string> label_of;
    for (const auto& cell : grid.cells) {
      for (const auto& r : cell.reports) {
        it.sim_events += static_cast<double>(r.sim_events);
        it.uav_seconds += r.duration.sec();
        scenario_of.push_back(&cell.cell.scenario);
        label_of.push_back(cell.cell.label);
      }
    }
    it.runs = static_cast<int>(label_of.size());

    // In-memory reference numbers, before anything touches disk. Every
    // iteration flies the same inputs (main compares the digests), so the
    // first iteration's numbers are the reference for all of them.
    if (reference_figures_.empty()) {
      reference_figures_ = campaign_figures(grid.cells);
    }
    {
      int k = 0;
      for (const auto& cell : grid.cells) {
        for (const auto& r : cell.reports) {
          if (spec_.single_path) {
            const auto why = check_conservation(r);
            if (!why.empty()) fail(it, failed, k, label_of[k] + ": " + why);
          }
          ++k;
        }
      }
    }
    if (spec_.sat_arms) check_sat_arms(it, failed, grid);
    if (traced) {
      it.counts = count_layers(grid, scenario_of, registry.summary());
    }

    const fs::path root = work_dir_ / ("iter" + std::to_string(iteration));
    fs::remove_all(root);
    exec::CampaignManifest manifest;
    manifest.name = spec_.name;
    manifest.git_describe = "perfbench";
    manifest.runs_per_cell = spec_.runs_per_cell;
    manifest.jobs = 1;
    for (const double t : it.unit_run_s) manifest.wall_seconds += t;
    fs::path dir;
    {
      gauge.mark();
      SpanScope s{spans, "exec.write_campaign", iteration, traced};
      dir = exec::RunArtifactStore{root}.write_campaign(manifest, grid);
      const double cpu_s = s.stop();
      it.write_s = cpu_s / gauge.settle();
    }

    // The bytes as written: digest, sizes, and per-run hashes for the
    // round-trip check.
    std::vector<std::uint64_t> written;
    Fnv1a digest;
    double dump_s = 0.0, parse_s = 0.0, dumped_bytes = 0.0;
    {
      const auto doc = json::parse(read_bytes(dir / "manifest.json"));
      std::size_t k = 0;
      for (const auto& cj : doc.at("cells").items()) {
        for (const auto& rj : cj.at("runs").items()) {
          const std::string bytes = read_bytes(dir / rj.at("file").as_string());
          digest.add(bytes);
          written.push_back(fnv_of(bytes));
          it.artifact_bytes += static_cast<double>(bytes.size());
          if (traced) it.counts.report_bytes += static_cast<double>(bytes.size());
          if (const auto* ev = rj.find("events")) {
            const auto n = static_cast<double>(
                fs::file_size(dir / ev->as_string()));
            it.artifact_bytes += n;
            if (traced) it.counts.events_jsonl_bytes += n;
          }
          if (traced) {
            // Per-report JSON cost, timed on its own (not part of wall_s).
            const auto& r = report_at(grid, k);
            {
              SpanScope s{spans, "json.report_dump", iteration, traced};
              const std::string text = pipeline::report_to_json(r).dump(-1);
              dumped_bytes += static_cast<double>(text.size());
              dump_s += s.stop();
            }
            SpanScope s{spans, "json.report_parse", iteration, traced};
            (void)pipeline::report_from_json(json::parse(bytes));
            parse_s += s.stop();
          }
          ++k;
        }
      }
      if (k != label_of.size())
        fail(it, failed, -1, "manifest lists " + std::to_string(k) +
                                 " runs, the engine returned " +
                                 std::to_string(label_of.size()));
    }
    it.digest = digest.value();
    if (traced && it.runs > 0) {
      it.report_dump_ms = 1e3 * dump_s / it.runs;
      it.report_parse_ms = 1e3 * parse_s / it.runs;
      it.dump_ns_per_byte = dumped_bytes > 0 ? 1e9 * dump_s / dumped_bytes : 0;
    }
    grid = {};  // the rerender below must not lean on the in-memory copy

    exec::LoadedCampaign loaded;
    {
      gauge.mark();
      SpanScope s{spans, "exec.load_campaign", iteration, traced};
      loaded = exec::RunArtifactStore::load_campaign(dir);
      const double cpu_s = s.stop();
      it.load_s = cpu_s / gauge.settle();
    }
    std::vector<double> loaded_figures;
    {
      gauge.mark();
      SpanScope s{spans, "metrics.pool", iteration, traced};
      loaded_figures = campaign_figures(loaded.cells);
      const double cpu_s = s.stop();
      it.pool_s = cpu_s / gauge.settle();
    }
    if (!same_numbers(reference_figures_, loaded_figures))
      fail(it, failed, -1, "figure numbers from the loaded artifacts differ "
                           "from the in-memory ones");
    // Re-serializing every loaded report costs seconds, so it runs on the
    // first iteration of each mode; later iterations write the same bytes
    // (the digest check in main compares them), so they load the same.
    const bool reserialize = !round_trip_checked_[traced ? 1 : 0];
    round_trip_checked_[traced ? 1 : 0] = true;
    std::size_t k = 0;
    for (const auto& cell : loaded.cells) {
      for (const auto& r : cell.reports) {
        if (reserialize) {
          const std::string again = pipeline::report_to_json(r).dump(-1) + "\n";
          if (k >= written.size() || fnv_of(again) != written[k])
            fail(it, failed, static_cast<int>(k),
                 label_of[std::min(k, label_of.size() - 1)] +
                     ": loaded report does not re-serialize to the bytes "
                     "written");
        }
        ++k;
      }
    }
    if (k != written.size())
      fail(it, failed, -1, "loaded " + std::to_string(k) + " runs of " +
                               std::to_string(written.size()) + " written");
    fs::remove_all(root);

    for (const bool f : failed) it.failed_runs += f ? 1 : 0;
    return it;
  }

  std::string describe() const override {
    return spec_.name + ": " + std::to_string(cells_.size()) + " cells x " +
           std::to_string(spec_.runs_per_cell) + " runs, base seed " +
           std::to_string(spec_.base_seed);
  }

 private:
  std::vector<std::uint64_t> seeds_of(const exec::GridCell& cell,
                                      int draw = 0) const {
    experiment::Campaign c;
    c.scenario = cell.scenario;
    c.scenario.seed = spec_.base_seed + static_cast<std::uint64_t>(draw) * kDrawStride;
    c.runs = spec_.runs_per_cell;
    return exec::campaign_seeds(c);
  }

  static const pipeline::SessionReport& report_at(const exec::GridResult& g,
                                                  std::size_t k) {
    for (const auto& cell : g.cells) {
      if (k < cell.reports.size()) return cell.reports[k];
      k -= cell.reports.size();
    }
    throw std::out_of_range("run index past the grid");
  }

  void check_sat_arms(IterationResult& it, std::vector<bool>& failed,
                      const exec::GridResult& grid) const {
    double pair_stall = 0, three_stall = 0, pass_hos = 0, obstructions = 0;
    for (const auto& cell : grid.cells) {
      if (cell.cell.scenario.path_set == experiment::PathSet::kOperatorPair) {
        pair_stall += total_stall_ms(cell.reports);
      } else {
        three_stall += total_stall_ms(cell.reports);
        for (const auto& r : cell.reports) {
          pass_hos += static_cast<double>(r.sat_pass_handovers);
          obstructions += static_cast<double>(r.sat_obstructions);
        }
      }
    }
    if (!(three_stall < pair_stall))
      fail(it, failed, -1, "three-way stall " + std::to_string(three_stall) +
                               " ms is not below operator-pair stall " +
                               std::to_string(pair_stall) + " ms");
    if (pass_hos <= 0 || obstructions <= 0)
      fail(it, failed, -1, "satellite pass handovers (" +
                               std::to_string(pass_hos) + ") or obstructions (" +
                               std::to_string(obstructions) + ") are zero");
  }

  static LayerCounts count_layers(
      const exec::GridResult& grid,
      const std::vector<const experiment::Scenario*>& scenario_of,
      const obs::MetricsSummary& registry) {
    LayerCounts c;
    add_registry_counts(c, registry);
    std::size_t k = 0;
    for (const auto& cell : grid.cells) {
      for (const auto& r : cell.reports) {
        const auto& s = *scenario_of[k++];
        const double seconds = r.duration.sec();
        c.runs += 1;
        c.sim_events += static_cast<double>(r.sim_events);
        c.uav_seconds += seconds;
        c.packets_sent += static_cast<double>(r.packets_sent);
        c.packets_received += static_cast<double>(r.packets_received);
        c.goodput_bytes += r.avg_goodput_mbps * seconds * 1e6 / 8.0;
        c.scream_queue_discards += static_cast<double>(r.queue_discard_events);
        add_feedbacks(c, experiment::make_session_config(s), seconds);
        if (runs_fec(s)) c.fec_packets += static_cast<double>(r.packets_sent);
        c.bond_airtime_bytes += static_cast<double>(r.bond_airtime_bytes);
        c.bond_media_bytes += static_cast<double>(r.bond_media_bytes);
        for (const auto& p : r.bond_paths) {
          c.bond_delivered += static_cast<double>(p.delivered_packets);
          if (p.kind == "satellite")
            c.sat_delivered += static_cast<double>(p.delivered_packets);
        }
        c.duplicates_suppressed +=
            static_cast<double>(r.bond_duplicates_suppressed);
        c.reorder_flushes += static_cast<double>(r.bond_reorder_flushes);
        c.path_switches += static_cast<double>(r.bond_path_switches);
        c.fec_retunes += static_cast<double>(r.bond_fec_rate_changes);
        c.sat_pass_handovers += static_cast<double>(r.sat_pass_handovers);
        c.sat_obstructions += static_cast<double>(r.sat_obstructions);
        c.obs_recorded += static_cast<double>(r.obs_events_recorded);
        c.obs_dropped += static_cast<double>(r.obs_events_dropped);
      }
    }
    return c;
  }

  CampaignSpec spec_;
  fs::path work_dir_;
  std::vector<exec::GridCell> cells_;
  std::vector<double> reference_figures_;
  bool round_trip_checked_[2] = {false, false};  // untraced, traced
};

class FleetWorkload final : public Workload {
 public:
  // Repeats of the (sub-millisecond) fleet rerender per iteration; the
  // median is reported.
  static constexpr int kRerenderRepeats = 25;

  // One run per fleet: each is its own shared deployment, run in order.
  FleetWorkload(std::vector<fleet::FleetScenario> fleets, int iterations,
                int setup_batch, fs::path work_dir)
      : fleets_{std::move(fleets)},
        iterations_{iterations},
        setup_batch_{setup_batch},
        work_dir_{std::move(work_dir)} {}

  SetupResult setup() const override {
    SetupResult out;
    for (int draw = 0; draw < kSetupDraws; ++draw) {
      for (auto f : fleets_) {
        f.base.seed += static_cast<std::uint64_t>(draw) * kDrawStride;
        const auto t0 = CpuClock::now();
        experiment::make_session_config(f.base).validate();
        const auto t1 = CpuClock::now();
        const auto mission = fleet::plan_fleet(f);
        out.experiment_s += seconds_between<CpuClock>(t0, t1) / kSetupDraws;
        out.plan_s += seconds_since(t1) / kSetupDraws;
        if (mission.configs.size() != static_cast<std::size_t>(f.sessions))
          throw std::logic_error("plan_fleet returned a partial mission");
      }
    }
    return out;
  }

  int setup_batch() const override { return setup_batch_; }
  int iterations() const override { return iterations_; }

  IterationResult iterate(int iteration, bool traced, SpanRecorder& spans,
                          HostGauge& gauge) override {
    IterationResult it;
    it.traced = traced;
    it.runs = static_cast<int>(fleets_.size());
    std::vector<bool> failed(fleets_.size(), false);
    SpanScope whole{spans, "fleet_urban64", iteration, traced};
    fs::create_directories(work_dir_);

    std::vector<fleet::FleetReport> reports;
    std::vector<std::vector<double>> figures;
    std::vector<std::string> texts;
    std::vector<fs::path> files;
    Fnv1a digest;
    gauge.mark();
    for (std::size_t k = 0; k < fleets_.size(); ++k) {
      const int run = static_cast<int>(k);
      {
        SpanScope s{spans, "exec.run", iteration, traced};
        reports.push_back(fleet::FleetEngine{{.jobs = 1, .keep_reports = false}}
                              .run(fleets_[k])
                              .report);
        add_unit(it, s.stop(), gauge);
      }
      const auto& rep = reports.back();
      it.sim_events += static_cast<double>(rep.total_events);
      it.uav_seconds += rep.sessions * rep.horizon_sec;
      figures.push_back(fleet_figures(rep));
      if (rep.packets_received > rep.packets_sent)
        fail(it, failed, run, rep.label + ": received more packets than sent");

      files.push_back(work_dir_ / ("fleet_" + std::to_string(k) + ".json"));
      {
        SpanScope s{spans, "exec.write_campaign", iteration, traced};
        texts.push_back(fleet::fleet_report_to_json(rep).dump(2) + "\n");
        std::ofstream out{files.back(), std::ios::binary | std::ios::trunc};
        out.write(texts.back().data(),
                  static_cast<std::streamsize>(texts.back().size()));
        if (!out) throw std::runtime_error("cannot write " + files.back().string());
        it.write_s += s.stop() / it.unit_slowness.back();
      }
      digest.add(texts.back());
      it.artifact_bytes += static_cast<double>(texts.back().size());
    }
    it.digest = digest.value();

    std::vector<double> load_s, pool_s;
    gauge.mark();
    for (int i = 0; i < kRerenderRepeats; ++i) {
      double load = 0.0, pool = 0.0;
      for (std::size_t k = 0; k < files.size(); ++k) {
        fleet::FleetReport loaded;
        {
          SpanScope s{spans, "exec.load_campaign", iteration, traced};
          loaded = fleet::fleet_report_from_json(json::parse(read_bytes(files[k])));
          load += s.stop();
        }
        std::vector<double> loaded_figures;
        {
          SpanScope s{spans, "metrics.pool", iteration, traced};
          loaded_figures = fleet_figures(loaded);
          pool += s.stop();
        }
        // The fleet JSON round trip: fleet_report_from_json of the
        // fleet_report_to_json bytes written above.
        if (i == 0 && (loaded != reports[k] ||
                       !same_numbers(figures[k], loaded_figures)))
          fail(it, failed, static_cast<int>(k),
               reports[k].label + ": fleet report loaded from disk differs "
                                  "from the in-memory one");
      }
      load_s.push_back(load);
      pool_s.push_back(pool);
    }
    const double slow = gauge.settle();
    it.load_s = median(load_s) / slow;
    it.pool_s = median(pool_s) / slow;

    if (traced) {
      double dump_s = 0.0, parse_s = 0.0, dumped_bytes = 0.0;
      for (std::size_t k = 0; k < reports.size(); ++k) {
        {
          SpanScope s{spans, "json.report_dump", iteration, traced};
          dumped_bytes += static_cast<double>(
              fleet::fleet_report_to_json(reports[k]).dump(2).size());
          dump_s += s.stop();
        }
        SpanScope s{spans, "json.report_parse", iteration, traced};
        (void)fleet::fleet_report_from_json(json::parse(texts[k]));
        parse_s += s.stop();
        add_counts(it.counts, reports[k], texts[k].size());
      }
      it.report_dump_ms = 1e3 * dump_s / static_cast<double>(reports.size());
      it.report_parse_ms = 1e3 * parse_s / static_cast<double>(reports.size());
      it.dump_ns_per_byte = 1e9 * dump_s / dumped_bytes;
    }
    for (const auto& f : files) fs::remove(f);
    for (const bool f : failed) it.failed_runs += f ? 1 : 0;
    return it;
  }

  std::string describe() const override {
    std::string seeds;
    for (const auto& f : fleets_) {
      seeds += (seeds.empty() ? "" : ",") + std::to_string(f.base.seed);
    }
    return "fleet_urban64: " + std::to_string(fleets_.size()) + " fleets of " +
           fleet::fleet_label(fleets_.front()) + ", " +
           std::to_string(fleets_.front().horizon_sec) + " s, seeds " + seeds;
  }

 private:
  void add_counts(LayerCounts& c, const fleet::FleetReport& rep,
                  std::size_t report_bytes) const {
    add_registry_counts(c, rep.metrics);
    const double seconds = rep.sessions * rep.horizon_sec;
    c.runs += 1;
    c.sim_events += static_cast<double>(rep.total_events);
    c.uav_seconds += seconds;
    c.packets_sent += static_cast<double>(rep.packets_sent);
    c.packets_received += static_cast<double>(rep.packets_received);
    c.goodput_bytes += rep.mean_goodput_mbps * seconds * 1e6 / 8.0;
    c.report_bytes += static_cast<double>(report_bytes);
    add_feedbacks(c, experiment::make_session_config(fleets_.front().base),
                  seconds);
  }

  std::vector<fleet::FleetScenario> fleets_;
  int iterations_;
  int setup_batch_;
  fs::path work_dir_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_campaign", "fleet_urban64", "bond_sat_storm"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool tiny,
                                        const fs::path& work_dir) {
  using experiment::Environment;
  if (name == "paper_campaign") {
    // The `video` grid of rpv_campaign: the paper's Fig. 5/6/7 campaign.
    CampaignSpec spec;
    spec.name = "paper_campaign";
    spec.axes.envs = tiny ? std::vector<Environment>{Environment::kUrban}
                          : std::vector<Environment>{Environment::kUrban,
                                                     Environment::kRuralP1,
                                                     Environment::kRuralP2};
    spec.axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
                     pipeline::CcKind::kStatic};
    spec.runs_per_cell = 1;
    spec.base_seed = 1000 + seed;
    spec.single_path = true;
    spec.iterations = 2;
    spec.setup_batch = 50;
    return std::make_unique<CampaignWorkload>(std::move(spec),
                                              work_dir / "paper_campaign");
  }
  if (name == "fleet_urban64") {
    // The bench_ext_fleet gate point. One deployment draw moves every
    // session's load at once, so an iteration flies three deployments to
    // keep the seed-to-seed spread of the totals small.
    const int fleets = tiny ? 1 : 3;
    std::vector<fleet::FleetScenario> scenarios;
    for (int j = 0; j < fleets; ++j) {
      fleet::FleetScenario s;
      s.base.env = Environment::kUrban;
      s.base.mobility = experiment::Mobility::kStatic;
      s.base.cc = pipeline::CcKind::kGcc;
      s.base.seed = 42000 + seed * static_cast<std::uint64_t>(fleets) +
                    static_cast<std::uint64_t>(j);
      s.sessions = tiny ? 4 : 64;
      s.horizon_sec = tiny ? 10.0 : 60.0;
      s.epoch_sec = 1.0;
      scenarios.push_back(std::move(s));
    }
    return std::make_unique<FleetWorkload>(std::move(scenarios), 2, 12,
                                           work_dir / "fleet_urban64");
  }
  if (name == "bond_sat_storm") {
    // The bench_ext_sat high-reliability arms: operator pair vs. + LEO.
    CampaignSpec spec;
    spec.name = "bond_sat_storm";
    spec.axes.envs = {Environment::kRuralP1};
    spec.axes.multipaths = {experiment::Multipath::kBondHighReliability};
    spec.axes.path_sets = {experiment::PathSet::kOperatorPair,
                           experiment::PathSet::kThreeWay};
    spec.axes.fault_presets = {experiment::FaultPreset::kRlfStorm};
    spec.base.cc = pipeline::CcKind::kStatic;
    spec.base.c2 = true;
    spec.base.faults_on_both_operators = true;
    spec.base.observe = true;
    spec.runs_per_cell = tiny ? 1 : 4;
    spec.base_seed = 17000 + seed;
    spec.sat_arms = true;
    spec.iterations = 2;
    spec.setup_batch = 50;
    return std::make_unique<CampaignWorkload>(std::move(spec),
                                              work_dir / "bond_sat_storm");
  }
  return nullptr;
}

}  // namespace perfbench
