// Extension (rpv::fleet): shared-cell contention sweep — what happens to
// per-UAV video delivery when 1 → 1000 RPAVs share one deployment's cells.
//
// The paper measures a single UAV against the full cell budget (~40 Mbps
// urban); a real multi-UAV operation contends for PRBs on shared eNodeBs.
// Each row runs one fleet size through the FleetEngine's sharded epoch loop
// and streams every session's metrics through MetricsRegistry::merge — no
// per-session artifact is materialized — then reports per-UAV goodput/stall
// degradation next to the engine's own throughput (events/sec, realtime
// factor, peak RSS).
//
// Exit status encodes the acceptance verdict: 0 when (a) the fleet-of-one
// session report is byte-identical to the same mission run as a standalone
// pipeline::Session, and (b) mean per-UAV goodput at the largest fleet size
// is below the fleet-of-one value. 1 otherwise.
//
//   bench_ext_fleet [--sizes CSV] [--env E] [--horizon SEC] [--epoch SEC]
//                   [--seed S] [--jobs J]
#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet_engine.hpp"
#include "metrics/text_table.hpp"
#include "pipeline/report_json.hpp"
#include "sim/validate.hpp"

namespace {

using namespace rpv;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<int> parse_sizes(const std::string& csv) {
  std::vector<int> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto token = csv.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
    sizes.push_back(rpv::parse_number("--sizes", token, 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  rpv::validate(!sizes.empty(), "--sizes must name at least one fleet size");
  return sizes;
}

experiment::Environment parse_env(const std::string& name) {
  if (name == "urban") return experiment::Environment::kUrban;
  if (name == "rural-p1") return experiment::Environment::kRuralP1;
  if (name == "rural-p2") return experiment::Environment::kRuralP2;
  throw std::invalid_argument{"unknown --env '" + name +
                              "' (urban, rural-p1, rural-p2)"};
}

void print_usage(const char* prog) {
  std::cout
      << "usage: " << prog
      << " [--sizes CSV] [--env E] [--horizon SEC] [--epoch SEC]\n"
         "                [--seed S] [--jobs J]\n"
         "  --sizes CSV       fleet sizes to sweep (default "
         "1,4,16,64,256,1000)\n"
         "  --env E           urban | rural-p1 | rural-p2 (default urban)\n"
         "  --horizon SEC     mission length per UAV (default 60)\n"
         "  --epoch SEC       cell-load exchange tick (default 1)\n"
         "  --seed S          fleet base seed (default 42000)\n"
         "  --jobs J          worker threads (default 0 = all hardware)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {1, 4, 16, 64, 256, 1000};
  std::string env_name = "urban";
  double horizon_sec = 60.0;
  double epoch_sec = 1.0;
  std::uint64_t seed = 42000;
  int jobs = 0;

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
      if (arg == "--sizes") sizes = parse_sizes(value_of(i, arg));
      else if (arg == "--env") {
        env_name = value_of(i, arg);
        (void)parse_env(env_name);  // reject typos here, with usage, not later
      }
      else if (arg == "--horizon")
        horizon_sec = parse_number(arg, value_of(i, arg), 0.0);
      else if (arg == "--epoch") {
        epoch_sec = parse_number(arg, value_of(i, arg), 0.0);
        rpv::validate(epoch_sec > 0.0, "--epoch must be > 0");
      } else if (arg == "--seed")
        seed = parse_number<std::uint64_t>(arg, value_of(i, arg), 0);
      else if (arg == "--jobs")
        jobs = parse_number(arg, value_of(i, arg), 0);
      else if (arg == "--help" || arg == "-h") {
        print_usage(argv[0]);
        return 0;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        print_usage(argv[0]);
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n\n";
      print_usage(argv[0]);
      return 2;
    }
  }

  std::cout
      << "==============================================================\n"
      << "Extension — shared-cell fleet contention sweep (rpv::fleet)\n"
      << "Paper reference: §4.1 cell goodput ceilings as *shared* budgets\n"
      << "==============================================================\n"
      << "env " << env_name << ", horizon "
      << metrics::TextTable::num(horizon_sec, 0) << " s, epoch "
      << metrics::TextTable::num(epoch_sec, 1) << " s, static hover missions\n";

  metrics::TextTable table{{"fleet", "goodput/UAV (Mbps)", "min", "max",
                            "stall ms/UAV", "peak cell load", "events",
                            "wall (s)", "events/s", "realtime x", "RSS (MB)"}};

  fleet::FleetScenario base;
  base.base.env = parse_env(env_name);
  base.base.mobility = experiment::Mobility::kStatic;
  base.base.cc = pipeline::CcKind::kGcc;
  base.base.seed = seed;
  base.horizon_sec = horizon_sec;
  base.epoch_sec = epoch_sec;

  double goodput_at_one = -1.0;
  double goodput_at_max = -1.0;
  int max_size = 0;
  bool baseline_identical = true;

  for (const int size : sizes) {
    fleet::FleetScenario s = base;
    s.sessions = size;
    const fleet::FleetEngine engine{{.jobs = jobs, .keep_reports = size == 1}};
    const auto result = engine.run(s);
    const auto& rep = result.report;

    if (size == 1) {
      // The acceptance bar: a fleet of one must reproduce the standalone
      // session byte for byte (same layout, trajectory, config, seed).
      auto mission = fleet::plan_fleet(s);
      pipeline::Session solo{mission.configs[0], mission.layout,
                             &mission.trajectories[0], mission.environment};
      const auto solo_json = pipeline::report_to_json(solo.run()).dump();
      const auto fleet_json =
          pipeline::report_to_json(result.session_reports.at(0)).dump();
      baseline_identical = solo_json == fleet_json;
      goodput_at_one = rep.mean_goodput_mbps;
    }
    if (size >= max_size) {
      max_size = size;
      goodput_at_max = rep.mean_goodput_mbps;
    }

    const double events_per_s =
        result.wall_seconds > 0.0
            ? static_cast<double>(rep.total_events) / result.wall_seconds
            : 0.0;
    const double realtime =
        result.wall_seconds > 0.0
            ? static_cast<double>(size) * horizon_sec / result.wall_seconds
            : 0.0;
    table.add_row({"n=" + std::to_string(size),
                   metrics::TextTable::num(rep.mean_goodput_mbps, 2),
                   metrics::TextTable::num(rep.min_goodput_mbps, 2),
                   metrics::TextTable::num(rep.max_goodput_mbps, 2),
                   metrics::TextTable::num(rep.mean_stall_ms_per_session, 0),
                   std::to_string(rep.peak_cell_load),
                   std::to_string(rep.total_events),
                   metrics::TextTable::num(result.wall_seconds, 1),
                   metrics::TextTable::num(events_per_s, 0),
                   metrics::TextTable::num(realtime, 1),
                   metrics::TextTable::num(peak_rss_mb(), 0)});
  }

  std::cout << table.render();

  const bool contention_visible =
      goodput_at_one < 0.0 || max_size <= 1 || goodput_at_max < goodput_at_one;
  if (goodput_at_one >= 0.0) {
    std::cout << "\nN=1 fleet vs standalone session: "
              << (baseline_identical ? "byte-identical" : "DIVERGED") << "\n";
  }
  if (goodput_at_one >= 0.0 && max_size > 1) {
    std::cout << "per-UAV goodput n=1 -> n=" << max_size << ": "
              << metrics::TextTable::num(goodput_at_one, 2) << " -> "
              << metrics::TextTable::num(goodput_at_max, 2) << " Mbps\n";
  }
  const bool verdict = baseline_identical && contention_visible;
  std::cout << "verdict: " << (verdict ? "PASS" : "FAIL") << "\n";
  return verdict ? 0 : 1;
}
