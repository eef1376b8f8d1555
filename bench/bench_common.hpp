// Shared helpers for the bench binaries: rpv_figures, which regenerates
// every table and figure of the paper's evaluation, every extension study,
// the named scenario grids and the fleet sweep (`rpv_figures --only <id>`
// for one), and bench_core_queue. rpv_figures runs its measurement
// campaigns on the simulator and prints the rows or series to compare side
// by side (see EXPERIMENTS.md for the paper-vs-measured record).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "metrics/text_table.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

class Flights;

// The flags an id reads besides --only, --seed, --jobs, --out and --load,
// which every id reads. A flag that no selected id reads is an error.
enum Reads : unsigned {
  kRuns = 1,
  kObserve = 2,
  kFleetFlags = 4,  // --sessions, --env, --horizon
};

// One registry entry: render() asks `flights` for its reports, prints to
// `out` and returns whether its verdict holds (true when it has none).
struct Figure {
  const char* id;
  bool (*render)(Flights& flights, std::ostream& out);
  unsigned reads = kRuns;
  bool by_default = true;  // selected when --only is not given
};

// rpv_figures' CLI options; see print_usage.
struct Options {
  std::vector<const Figure*> selected;  // in registry order
  std::optional<int> runs;
  std::optional<std::uint64_t> seed;
  int jobs = 0;
  std::optional<std::filesystem::path> out, load;
  bool observe = false;
  std::vector<int> sessions = {16, 64};
  std::vector<experiment::Environment> envs = {
      experiment::Environment::kUrban, experiment::Environment::kRuralP1};
  double horizon_sec = 60.0;
};

inline Options& options() {
  static Options opts;
  return opts;
}

// "a,b,c" -> {"a", "b", "c"}; "" and "a," hold an empty token.
[[nodiscard]] inline std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> tokens;
  for (std::size_t from = 0, comma = 0; comma != std::string::npos;
       from = comma + 1) {
    comma = s.find(',', from);
    tokens.push_back(s.substr(from, comma - from));  // npos: to the end
  }
  return tokens;
}

// "--sessions 1,4,16": fleet sizes in sweep order. An empty, malformed or
// repeated size throws (two cells of one size would write the same
// fleet_<label>.json).
[[nodiscard]] inline std::vector<int> parse_sessions(const std::string& csv) {
  std::vector<int> sizes;
  for (const auto& token : split_commas(csv)) {
    const int size = parse_number("--sessions", token, 1);
    validate(std::find(sizes.begin(), sizes.end(), size) == sizes.end(),
             "--sessions names " + std::to_string(size) + " twice");
    sizes.push_back(size);
  }
  return sizes;
}

// The ids a --only list names, in registry order; every by_default id when
// there is no list. An unknown id (an empty token included) throws.
[[nodiscard]] inline std::vector<const Figure*> select(
    const std::optional<std::string>& only, std::span<const Figure> registry) {
  const auto ids = only ? split_commas(*only) : std::vector<std::string>{};
  for (const auto& id : ids) {
    validate(std::any_of(registry.begin(), registry.end(),
                         [&](const Figure& f) { return id == f.id; }),
             "unknown id: '" + id + "'");
  }
  std::vector<const Figure*> out;
  for (const auto& f : registry) {
    if (only ? std::find(ids.begin(), ids.end(), f.id) != ids.end()
             : f.by_default) {
      out.push_back(&f);
    }
  }
  return out;
}

// Testable core of the CLI parser: consumes argv (minus the program name) and
// returns the parsed options, throwing std::invalid_argument via rpv::validate
// on malformed, unknown, or out-of-range flags, on an unknown id and on a
// flag that no selected id reads. --runs must be positive; --seed and --jobs
// (0 = one worker per hardware thread) non-negative.
[[nodiscard]] inline Options parse_options(const std::vector<std::string>& args,
                                           std::span<const Figure> registry) {
  Options opts;
  std::optional<std::string> only;
  std::vector<std::pair<std::string, unsigned>> read_by;  // flag, Reads bit
  auto value_of = [&](std::size_t& i, const std::string& flag) -> std::string {
    validate(i + 1 < args.size(), flag + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--only") {
      only = value_of(i, arg);
    } else if (arg == "--runs") {
      opts.runs = parse_number(arg, value_of(i, arg), 1);
      read_by.emplace_back(arg, kRuns);
    } else if (arg == "--seed") {
      opts.seed = parse_number<std::uint64_t>(arg, value_of(i, arg), 0);
    } else if (arg == "--jobs") {
      opts.jobs = parse_number(arg, value_of(i, arg), 0);
    } else if (arg == "--out") {
      opts.out = value_of(i, arg);
    } else if (arg == "--load") {
      opts.load = value_of(i, arg);
    } else if (arg == "--observe") {
      opts.observe = true;
      read_by.emplace_back(arg, kObserve);
    } else if (arg == "--sessions") {
      opts.sessions = parse_sessions(value_of(i, arg));
      read_by.emplace_back(arg, kFleetFlags);
    } else if (arg == "--env") {
      const auto name = value_of(i, arg);
      const auto& names = experiment::kEnvironmentNames;
      const auto at = std::find(names.begin(), names.end(), name);
      validate(at != names.end(), "unknown --env '" + name +
                                      "' (urban, rural-p1, rural-p2)");
      opts.envs = {static_cast<experiment::Environment>(at - names.begin())};
      read_by.emplace_back(arg, kFleetFlags);
    } else if (arg == "--horizon") {
      opts.horizon_sec = parse_number(arg, value_of(i, arg), 0.0);
      read_by.emplace_back(arg, kFleetFlags);
    } else {
      validate(false, "unknown argument: " + arg + " (try --help)");
    }
  }
  opts.selected = select(only, registry);
  for (const auto& [flag, bit] : read_by) {
    validate(std::any_of(opts.selected.begin(), opts.selected.end(),
                         [&](const Figure* f) { return f->reads & bit; }),
             flag + " is read by none of the selected ids");
  }
  return opts;
}

inline void print_usage(std::ostream& out, std::span<const Figure> registry) {
  out << R"(usage: rpv_figures [--only ID,...] [--runs N] [--seed S] [--jobs J]
                   [--out DIR] [--load DIR] [--observe]
                   [--sessions N,...] [--env E] [--horizon SEC]
  --only IDS       the ids to print, in the order below (default: each one
                   without a *)
  --runs N         flights per scenario cell (default: per id; 5 for a grid)
  --seed S         base seed (default: per id; 1000 for a grid and the fleet)
  --jobs J         worker threads (default 0 = all hardware threads)
  --out DIR        store the flights, warm-up maps and fleets in DIR
  --load DIR       answer them from the store in DIR instead of flying
  --observe        record each grid flight's events (runs/*.events.jsonl)
  --sessions N,..  fleet sizes, each named once (default 16,64)
  --env E          the fleet's one environment (urban, rural-p1, rural-p2)
  --horizon SEC    fleet mission length per UAV (default 60)
ids:)";
  for (const auto& f : registry) out << " " << f.id << (f.by_default ? "" : "*");
  out << "\n";
}

inline void parse_args(int argc, char** argv, std::span<const Figure> registry) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, registry);
      std::exit(0);
    }
    args.push_back(arg);
  }
  try {
    options() = parse_options(args, registry);
  } catch (const std::exception& e) {
    // A malformed or unknown flag gets the full usage text, not just the
    // one-line reason — the common failure is a typo'd flag name.
    std::cerr << e.what() << "\n";
    print_usage(std::cerr, registry);
    std::exit(2);
  }
}

// Per-figure defaults, overridable from the command line.
[[nodiscard]] inline int runs_or(int bench_default) {
  return options().runs.value_or(bench_default);
}
[[nodiscard]] inline std::uint64_t seed_or(std::uint64_t bench_default) {
  return options().seed.value_or(bench_default);
}

inline void print_header(const std::string& title, const std::string& paper_ref,
                         std::ostream& out) {
  out << "==============================================================\n"
      << title << "\n"
      << "Paper reference: " << paper_ref << "\n"
      << "==============================================================\n";
}

}  // namespace rpv::bench
