// Shared helpers for the bench binaries: rpv_figures, which regenerates
// every table and figure of the paper's evaluation and every extension
// study (`rpv_figures --only <id>` for one), and bench_core_queue.
// rpv_figures runs its measurement campaigns on the simulator and prints the
// rows or series to compare side by side (see EXPERIMENTS.md for the
// paper-vs-measured record). The fleet sweep is `rpv_campaign fleet`.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "metrics/text_table.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

// rpv_figures' CLI options:
//   --runs N   override each figure's campaign size
//   --seed S   override each figure's base seed
//   --jobs J   worker threads (0 = one per hardware thread)
struct Options {
  std::optional<int> runs;
  std::optional<std::uint64_t> seed;
  int jobs = 0;
};

inline Options& options() {
  static Options opts;
  return opts;
}

// Testable core of the CLI parser: consumes argv (minus the program name) and
// returns the parsed options, throwing std::invalid_argument via rpv::validate
// on malformed, unknown, or out-of-range flags. --runs must be positive;
// --seed and --jobs (0 = one worker per hardware thread) non-negative.
[[nodiscard]] inline Options parse_options(const std::vector<std::string>& args) {
  Options opts;
  auto value_of = [&](std::size_t& i, const std::string& flag) -> std::string {
    validate(i + 1 < args.size(), flag + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--runs") {
      opts.runs = parse_number(arg, value_of(i, arg), 1);
    } else if (arg == "--seed") {
      opts.seed = parse_number<std::uint64_t>(arg, value_of(i, arg), 0);
    } else if (arg == "--jobs") {
      opts.jobs = parse_number(arg, value_of(i, arg), 0);
    } else {
      validate(false, "unknown argument: " + arg + " (try --help)");
    }
  }
  return opts;
}

// `extra` documents a binary's own flags, which it takes out of argv
// before calling parse_args.
inline void print_usage(const char* prog, std::ostream& out,
                        const std::string& extra) {
  out << "usage: " << prog
      << " [--runs N] [--seed S] [--jobs J]\n"
         "  --runs N  campaign size per scenario cell (default: "
         "per figure, usually 3-8)\n"
         "  --seed S  base seed (default: per figure)\n"
         "  --jobs J  worker threads (default 0 = all hardware "
         "threads)\n"
      << extra;
}

inline void parse_args(int argc, char** argv, const std::string& extra_usage = "") {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], std::cout, extra_usage);
      std::exit(0);
    }
    args.push_back(arg);
  }
  try {
    options() = parse_options(args);
  } catch (const std::exception& e) {
    // A malformed or unknown flag gets the full usage text, not just the
    // one-line reason — the common failure is a typo'd flag name.
    std::cerr << e.what() << "\n";
    print_usage(argv[0], std::cerr, extra_usage);
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
