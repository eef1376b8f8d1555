// rpv_campaign — run a named scenario grid through the parallel campaign
// engine, optionally persist every run as a JSON artifact, and print the
// summary table; or re-aggregate a previously stored campaign without
// re-simulating anything.
//
//   rpv_campaign <grid> [--runs N] [--seed S] [--jobs J] [--out DIR] [--name NAME]
//   rpv_campaign fleet [--sessions N,...] [--env E] [--horizon SEC] ...
//   rpv_campaign --load DIR/NAME
//   rpv_campaign --list
//
// Named grids (cross products, one campaign of N runs per cell):
//   video      {urban, rural-p1, rural-p2} x air x {gcc, scream, static}
//   handover   {urban, rural-p1} x {air, ground} probe traffic (no video)
//   operators  {rural-p1, rural-p2} x air x {gcc, scream}
//   tech       urban x air x {gcc, static} x {lte, 5g-sa}
//   predict    {urban, rural-p1} x air x all CCs x {reactive, proactive}
//   bond       rural pair x {failover, duplicate, bond-*} x {rlf-storm, chaos}
//   sat        3-way multi-connectivity: operator pair vs +LEO satellite
//              x {failover, bond-bal, bond-hr} under rlf-storm
//   fleet      shared-cell multi-UAV sweep: {urban, rural-p1} x size; one
//              FleetEngine run per cell, streaming-merged fleet reports
//              (the 1 -> 1000 UAV sweep: fleet --seed 42000
//              --sessions 1,4,16,64,256,1000 --env urban)
//   plan       radio-map planning study: a warm-up survey map per
//              environment, then {reactive, proactive, planned} x
//              {urban, rural-p1} with the map attached; with --out the maps
//              are stored as campaign artifacts (maps/<env>.map.json)
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "exec/parallel_for.hpp"
#include "exec/run_artifact.hpp"
#include "experiment/mapping.hpp"
#include "fleet/fleet_engine.hpp"
#include "metrics/cdf.hpp"
#include "metrics/text_table.hpp"
#include "sim/validate.hpp"

namespace {

using namespace rpv;

struct NamedGrid {
  std::string name;
  std::string description;
  exec::GridAxes axes;
  experiment::Scenario base;
};

std::vector<NamedGrid> named_grids() {
  std::vector<NamedGrid> grids;
  {
    NamedGrid g;
    g.name = "video";
    g.description = "all environments x video congestion controllers (air)";
    g.axes.envs = {experiment::Environment::kUrban,
                   experiment::Environment::kRuralP1,
                   experiment::Environment::kRuralP2};
    g.axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
                  pipeline::CcKind::kStatic};
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "handover";
    g.description = "probe-only HO study: {urban, rural-p1} x {air, ground}";
    g.axes.envs = {experiment::Environment::kUrban,
                   experiment::Environment::kRuralP1};
    g.axes.mobilities = {experiment::Mobility::kAir,
                         experiment::Mobility::kGround};
    g.base.cc = pipeline::CcKind::kNone;
    g.base.probe_interval = sim::Duration::millis(100);
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "operators";
    g.description = "rural operator comparison P1 vs P2 (air, adaptive CCs)";
    g.axes.envs = {experiment::Environment::kRuralP1,
                   experiment::Environment::kRuralP2};
    g.axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream};
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "tech";
    g.description = "LTE vs 5G stand-alone (urban air)";
    g.axes.envs = {experiment::Environment::kUrban};
    g.axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kStatic};
    g.axes.techs = {experiment::AccessTech::kLte,
                    experiment::AccessTech::k5gSa};
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "predict";
    g.description =
        "reactive vs proactive (rpv::predict) x {urban, rural-p1} x all CCs";
    g.axes.envs = {experiment::Environment::kUrban,
                   experiment::Environment::kRuralP1};
    g.axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
                  pipeline::CcKind::kStatic};
    g.axes.policies = {experiment::Policy::kReactive,
                       experiment::Policy::kProactive};
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "bond";
    g.description =
        "bonded operator pair: reference arms vs rpv::bond policies x faults";
    g.axes.envs = {experiment::Environment::kRuralP1};
    g.axes.multipaths = {experiment::Multipath::kFailover,
                         experiment::Multipath::kDuplicate,
                         experiment::Multipath::kBondLowLatency,
                         experiment::Multipath::kBondBalanced,
                         experiment::Multipath::kBondHighReliability};
    g.axes.fault_presets = {experiment::FaultPreset::kRlfStorm,
                            experiment::FaultPreset::kChaos};
    g.base.cc = pipeline::CcKind::kStatic;
    g.base.c2 = true;
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g;
    g.name = "sat";
    g.description =
        "2-path operator pair vs 3-way (+LEO sat) bonding under rlf-storm";
    g.axes.envs = {experiment::Environment::kRuralP1};
    g.axes.multipaths = {experiment::Multipath::kFailover,
                         experiment::Multipath::kBondBalanced,
                         experiment::Multipath::kBondHighReliability};
    g.axes.path_sets = {experiment::PathSet::kOperatorPair,
                        experiment::PathSet::kThreeWay};
    g.axes.fault_presets = {experiment::FaultPreset::kRlfStorm};
    g.base.mobility = experiment::Mobility::kStatic;
    g.base.cc = pipeline::CcKind::kStatic;
    g.base.c2 = true;
    g.base.faults_on_both_operators = true;
    grids.push_back(std::move(g));
  }
  return grids;
}

void print_usage() {
  std::cout
      << "usage: rpv_campaign <grid> [--runs N] [--seed S] [--jobs J]\n"
         "                    [--out DIR] [--name NAME]\n"
         "       rpv_campaign fleet [--sessions N,...] [--env E]\n"
         "                    [--horizon SEC] [--seed S] [--jobs J]\n"
         "                    [--out DIR] [--name NAME]\n"
         "       rpv_campaign --load DIR   (re-aggregate stored artifacts)\n"
         "       rpv_campaign --list       (show named grids)\n"
         "  --runs N   seeded repetitions per grid cell (default 5)\n"
         "  --seed S   base seed (default 1000)\n"
         "  --jobs J   worker threads (default 0 = all hardware threads)\n"
         "  --out DIR  artifact store root; writes DIR/<name>/manifest.json\n"
         "             plus one JSON report per run\n"
         "  --name N   campaign name under --out (default: the grid name)\n"
         "  --observe  attach the rpv::obs recorder to every run; with --out\n"
         "             each run also gets a runs/*.events.jsonl timeline\n"
         "fleet grid only (default sweep: {urban, rural-p1} x {16, 64}):\n"
         "  --sessions N,.. fleet sizes to sweep, in order, each at least 1\n"
         "                  and named once (default 16,64)\n"
         "  --env E         collapse the environment axis (urban, rural-p1,\n"
         "                  rural-p2)\n"
         "  --horizon SEC   mission length per UAV (default 60)\n"
         "  with --out, each cell writes DIR/<name>/fleet_<label>.json\n"
         "plan grid: builds a warm-up survey radio map per environment, then\n"
         "  runs {reactive, proactive, planned} x {urban, rural-p1} with the\n"
         "  map attached; with --out, maps land in DIR/<name>/maps/\n";
}

experiment::Environment parse_env_name(const std::string& name) {
  if (name == "urban") return experiment::Environment::kUrban;
  if (name == "rural-p1") return experiment::Environment::kRuralP1;
  if (name == "rural-p2") return experiment::Environment::kRuralP2;
  throw std::invalid_argument{"unknown --env '" + name +
                              "' (urban, rural-p1, rural-p2)"};
}

// The fleet grid's default axes; a cell per (environment, size) pair,
// environment-major.
const std::vector<int> kFleetSizes = {16, 64};
const std::vector<experiment::Environment> kFleetEnvs = {
    experiment::Environment::kUrban, experiment::Environment::kRuralP1};

// "--sessions 1,4,16": fleet sizes in sweep order. An empty, malformed or
// repeated size throws (two cells of one size would write the same
// fleet_<label>.json).
std::vector<int> parse_sessions(const std::string& csv) {
  std::vector<int> sizes;
  for (std::size_t from = 0;;) {
    const auto comma = csv.find(',', from);
    const int size =
        parse_number("--sessions", csv.substr(from, comma - from), 1);
    rpv::validate(std::find(sizes.begin(), sizes.end(), size) == sizes.end(),
                  "--sessions names " + std::to_string(size) + " twice");
    sizes.push_back(size);
    if (comma == std::string::npos) return sizes;
    from = comma + 1;
  }
}

struct FleetOptions {
  std::vector<int> sizes = kFleetSizes;
  std::vector<experiment::Environment> envs = kFleetEnvs;
  double horizon_sec = 60.0;
  std::uint64_t seed = 1000;
  int jobs = 0;
  std::optional<std::string> out_dir;
  std::optional<std::string> name;
};

int run_fleet_grid(const FleetOptions& opt) {
  fleet::FleetScenario base;
  base.base.mobility = experiment::Mobility::kStatic;
  base.base.cc = pipeline::CcKind::kGcc;
  base.base.seed = opt.seed;
  base.horizon_sec = opt.horizon_sec;
  std::vector<fleet::FleetScenario> cells;
  for (const auto env : opt.envs) {
    for (const int size : opt.sizes) {
      auto& cell = cells.emplace_back(base);
      cell.base.env = env;
      cell.sessions = size;
    }
  }

  const fleet::FleetEngine engine{{.jobs = opt.jobs}};
  std::cout << "fleet grid: " << cells.size() << " cells, horizon "
            << metrics::TextTable::num(opt.horizon_sec, 0) << " s/UAV\n";

  std::optional<std::filesystem::path> dir;
  if (opt.out_dir) {
    dir = std::filesystem::path{*opt.out_dir} / opt.name.value_or("fleet");
    std::filesystem::create_directories(*dir);
  }

  metrics::TextTable table{{"cell", "goodput/UAV (Mbps)", "min",
                            "stall ms/UAV", "peak cell load", "events",
                            "wall (s)"}};
  double total_wall = 0.0;
  for (const auto& cell : cells) {
    const auto result = engine.run(cell);
    const auto& rep = result.report;
    total_wall += result.wall_seconds;
    table.add_row({rep.label,
                   metrics::TextTable::num(rep.mean_goodput_mbps, 2),
                   metrics::TextTable::num(rep.min_goodput_mbps, 2),
                   metrics::TextTable::num(rep.mean_stall_ms_per_session, 0),
                   std::to_string(rep.peak_cell_load),
                   std::to_string(rep.total_events),
                   metrics::TextTable::num(result.wall_seconds, 1)});
    if (dir) {
      std::ofstream out{*dir / ("fleet_" + rep.label + ".json")};
      out << fleet::fleet_report_to_json(rep).dump(2) << "\n";
    }
  }
  std::cout << "simulated " << cells.size() << " fleet cells in "
            << metrics::TextTable::num(total_wall, 1) << " s on "
            << exec::resolve_jobs(opt.jobs) << " worker(s)\n\n";
  std::cout << table.render();
  if (dir) std::cout << "\nfleet reports written to " << dir->string() << "\n";
  return 0;
}

struct PlanOptions {
  int runs = 5;
  std::uint64_t seed = 1000;
  int jobs = 0;
  std::optional<std::string> out_dir;
  std::optional<std::string> name;
  bool observe = false;
};

void print_summary(const std::vector<exec::GridCellResult>& cells);

// The radio-map planning study. Unlike the static named grids, each
// environment first flies warm-up survey sweeps to build its map, then the
// policy cells {reactive, proactive, planned} run with that map attached
// (the predictor prior reads it on every policy except reactive; the planner
// only under planned).
int run_plan_grid(const PlanOptions& opt) {
  const std::vector<experiment::Environment> envs = {
      experiment::Environment::kUrban, experiment::Environment::kRuralP1};
  const auto spec = experiment::default_map_spec();

  std::vector<exec::GridCell> cells;
  std::vector<std::pair<std::string, std::shared_ptr<const radiomap::RadioMap>>>
      maps;
  for (const auto env : envs) {
    experiment::Scenario base;
    base.env = env;
    base.seed = opt.seed;
    base.observe = opt.observe;
    auto map = std::make_shared<radiomap::RadioMap>(
        experiment::build_radio_map(base, spec));
    std::cout << "warm-up map (" << experiment::environment_name(env)
              << "): " << map->observed_voxels() << " voxels, "
              << map->total_samples() << " samples\n";
    maps.emplace_back(experiment::environment_name(env), map);
    base.radio_map = map;
    exec::GridAxes axes;
    axes.policies = {experiment::Policy::kReactive,
                     experiment::Policy::kProactive,
                     experiment::Policy::kPlanned};
    auto env_cells = exec::expand_grid(axes, base);
    cells.insert(cells.end(), std::make_move_iterator(env_cells.begin()),
                 std::make_move_iterator(env_cells.end()));
  }

  const exec::CampaignEngine engine{{.jobs = opt.jobs}};
  std::cout << "grid 'plan': " << cells.size() << " cells x " << opt.runs
            << " runs on " << engine.jobs() << " worker(s)\n";
  const auto result = engine.run_grid(cells, opt.runs, opt.seed);
  std::cout << "simulated "
            << cells.size() * static_cast<std::size_t>(opt.runs) << " runs in "
            << metrics::TextTable::num(result.wall_seconds, 1) << " s\n\n";
  print_summary(result.cells);

  if (opt.out_dir) {
    exec::CampaignManifest manifest;
    manifest.name = opt.name.value_or("plan");
    manifest.git_describe = exec::current_git_describe();
    manifest.runs_per_cell = opt.runs;
    manifest.jobs = result.jobs;
    manifest.wall_seconds = result.wall_seconds;
    const exec::RunArtifactStore store{*opt.out_dir};
    const auto dir = store.write_campaign(manifest, result);
    for (const auto& [env_name, map] : maps) {
      store.write_radio_map(manifest.name, env_name, *map);
    }
    std::cout << "\nartifacts written to " << dir.string()
              << " (including maps/<env>.map.json)\n";
  }
  return 0;
}

void print_summary(const std::vector<exec::GridCellResult>& cells) {
  metrics::TextTable table{{"cell", "runs", "goodput med (Mbps)",
                            "OWD med (ms)", "OWD p99 (ms)", "play p95 (ms)",
                            "stalls/min", "HO/s", "SSIM med"}};
  for (const auto& cell : cells) {
    const auto& rs = cell.reports;
    const auto goodput = experiment::pool_goodput(rs);
    const auto owd = experiment::pool_owd(rs);
    const auto play = experiment::pool_playback_latency(rs);
    const auto ssim = experiment::pool_ssim(rs);
    double ho = 0.0;
    for (const auto& r : rs) ho += r.handovers.frequency(r.duration);
    if (!rs.empty()) ho /= static_cast<double>(rs.size());
    auto med = [](const metrics::Cdf& c) {
      return c.empty() ? std::string{"-"} : metrics::TextTable::num(c.median(), 2);
    };
    table.add_row(
        {cell.cell.label, std::to_string(rs.size()), med(goodput), med(owd),
         owd.empty() ? "-" : metrics::TextTable::num(owd.quantile(0.99), 0),
         play.empty() ? "-" : metrics::TextTable::num(play.quantile(0.95), 0),
         metrics::TextTable::num(experiment::mean_stalls_per_minute(rs), 2),
         metrics::TextTable::num(ho, 3), med(ssim)});
  }
  std::cout << table.render();
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name;
  std::optional<std::string> load_dir;
  std::optional<std::string> out_dir;
  std::optional<std::string> campaign_name;
  int runs = 5;
  std::uint64_t seed = 1000;
  int jobs = 0;
  bool observe = false;
  FleetOptions fleet_opt;
  // Flags only the fleet grid reads, and flags it does not read, as given.
  std::vector<std::string> fleet_flags, grid_flags;

  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--runs" || arg == "--observe") grid_flags.push_back(arg);
      if (arg == "--sessions" || arg == "--env" || arg == "--horizon")
        fleet_flags.push_back(arg);
      if (arg == "--runs") runs = parse_number(arg, value_of(i, arg), 1);
      else if (arg == "--seed")
        seed = parse_number<std::uint64_t>(arg, value_of(i, arg), 0);
      else if (arg == "--jobs") jobs = parse_number(arg, value_of(i, arg), 0);
      else if (arg == "--out") out_dir = value_of(i, arg);
      else if (arg == "--name") campaign_name = value_of(i, arg);
      else if (arg == "--load") load_dir = value_of(i, arg);
      else if (arg == "--observe") observe = true;
      else if (arg == "--sessions")
        fleet_opt.sizes = parse_sessions(value_of(i, arg));
      else if (arg == "--env")
        fleet_opt.envs = {parse_env_name(value_of(i, arg))};
      else if (arg == "--horizon")
        fleet_opt.horizon_sec = parse_number(arg, value_of(i, arg), 0.0);
      else if (arg == "--list") {
        for (const auto& g : named_grids()) {
          const auto cells = exec::expand_grid(g.axes, g.base);
          std::cout << "  " << g.name << "\t(" << cells.size()
                    << " scenarios)\t" << g.description << "\n";
        }
        std::cout << "  fleet\t(" << kFleetEnvs.size() * kFleetSizes.size()
                  << " fleet cells)\tshared-cell multi-UAV sweep: "
                     "{16, 64} UAVs x {urban, rural-p1}\n";
        std::cout << "  plan\t(6 scenarios)\tradio-map planning study: "
                     "{reactive, proactive, planned} x {urban, rural-p1} "
                     "with warm-up survey maps\n";
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (!arg.empty() && arg[0] != '-' && grid_name.empty()) {
        grid_name = arg;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n\n";
      print_usage();
      return 2;
    }
  }

  if (load_dir) {
    try {
      const auto loaded = exec::RunArtifactStore::load_campaign(*load_dir);
      const auto& m = loaded.manifest;
      std::cout << "campaign: " << m.at("name").as_string() << "  (git "
                << m.at("git").as_string() << ", " << loaded.cells.size()
                << " cells, " << m.at("runs_per_cell").as_i64()
                << " runs/cell, simulated in "
                << metrics::TextTable::num(m.at("wall_seconds").as_double(), 1)
                << " s with " << m.at("jobs").as_i64() << " jobs)\n\n";
      print_summary(loaded.cells);
      std::cout << "\n(re-aggregated from stored artifacts; nothing was "
                   "re-simulated)\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "failed to load " << *load_dir << ": " << e.what() << "\n";
      return 1;
    }
  }

  if (grid_name.empty()) {
    print_usage();
    return 2;
  }
  const bool fleet = grid_name == "fleet";
  if (const auto& unread = fleet ? grid_flags : fleet_flags; !unread.empty()) {
    std::cerr << "error: " << unread.front()
              << (fleet ? " does not apply to the fleet grid"
                        : " applies only to the fleet grid")
              << "\n\n";
    print_usage();
    return 2;
  }
  if (grid_name == "plan") {
    PlanOptions opt;
    opt.runs = runs;
    opt.seed = seed;
    opt.jobs = jobs;
    opt.out_dir = out_dir;
    opt.name = campaign_name;
    opt.observe = observe;
    try {
      return run_plan_grid(opt);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (fleet) {
    fleet_opt.seed = seed;
    fleet_opt.jobs = jobs;
    fleet_opt.out_dir = out_dir;
    fleet_opt.name = campaign_name;
    try {
      return run_fleet_grid(fleet_opt);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  const auto grids = named_grids();
  const NamedGrid* grid = nullptr;
  for (const auto& g : grids) {
    if (g.name == grid_name) grid = &g;
  }
  if (grid == nullptr) {
    std::cerr << "unknown grid '" << grid_name << "' (see --list)\n";
    return 2;
  }

  try {
    const exec::CampaignEngine engine{{.jobs = jobs}};
    experiment::Scenario base = grid->base;
    base.observe = observe;
    const auto cells = exec::expand_grid(grid->axes, base);
    std::cout << "grid '" << grid->name << "': " << cells.size() << " cells x "
              << runs << " runs on " << engine.jobs() << " worker(s)\n";
    const auto result = engine.run_grid(cells, runs, seed);
    std::cout << "simulated "
              << cells.size() * static_cast<std::size_t>(runs) << " runs in "
              << metrics::TextTable::num(result.wall_seconds, 1) << " s\n\n";
    print_summary(result.cells);

    if (out_dir) {
      exec::CampaignManifest manifest;
      manifest.name = campaign_name.value_or(grid->name);
      manifest.git_describe = exec::current_git_describe();
      manifest.runs_per_cell = runs;
      manifest.jobs = result.jobs;
      manifest.wall_seconds = result.wall_seconds;
      const exec::RunArtifactStore store{*out_dir};
      const auto dir = store.write_campaign(manifest, result);
      std::cout << "\nartifacts written to " << dir.string()
                << " (re-aggregate with: rpv_campaign --load " << dir.string()
                << ")\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
