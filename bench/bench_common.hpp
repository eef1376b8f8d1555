// Shared helpers for the figure-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation: it runs the relevant measurement campaign on the simulator and
// prints the same rows/series the paper plots, so shapes can be compared
// side by side (see EXPERIMENTS.md for the paper-vs-measured record).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "experiment/runner.hpp"
#include "metrics/bootstrap.hpp"
#include "metrics/summary.hpp"
#include "metrics/text_table.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

// Fallback campaign size when a bench names no preference and the user
// passes no --runs (the seed repo hard-coded 5 everywhere).
inline constexpr int kFallbackRuns = 5;

// Shared CLI options: every bench binary accepts
//   --runs N   override the per-bench campaign size
//   --seed S   override the per-bench base seed
//   --jobs J   worker threads per campaign (0 = one per hardware thread)
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

inline void print_usage(const char* prog, std::ostream& out) {
  out << "usage: " << prog
      << " [--runs N] [--seed S] [--jobs J]\n"
         "  --runs N  campaign size per scenario cell (default: "
         "per-bench, usually 4-8)\n"
         "  --seed S  base seed (default: per-bench)\n"
         "  --jobs J  worker threads (default 0 = all hardware "
         "threads)\n";
}

inline void parse_args(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], std::cout);
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
    print_usage(argv[0], std::cerr);
    std::exit(2);
  }
}

// Per-bench defaults, overridable from the command line.
[[nodiscard]] inline int runs_or(int bench_default) {
  return options().runs.value_or(bench_default);
}
[[nodiscard]] inline std::uint64_t seed_or(std::uint64_t bench_default) {
  return options().seed.value_or(bench_default);
}

// Run a hand-built scenario list through the parallel campaign engine,
// honoring --jobs. Reports come back in input order.
[[nodiscard]] inline std::vector<pipeline::SessionReport> run_scenarios(
    const std::vector<experiment::Scenario>& scenarios) {
  const exec::CampaignEngine engine{{.jobs = options().jobs}};
  return engine.run_scenarios(scenarios);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << "==============================================================\n";
}

// Boxplot-style row for a sample set.
inline void add_summary_row(metrics::TextTable& table, const std::string& label,
                            const std::vector<double>& samples, int precision = 2) {
  const auto s = metrics::Summary::of(samples);
  table.add_row({label, std::to_string(s.n), metrics::TextTable::num(s.min, precision),
                 metrics::TextTable::num(s.q1, precision),
                 metrics::TextTable::num(s.median, precision),
                 metrics::TextTable::num(s.q3, precision),
                 metrics::TextTable::num(s.max, precision),
                 metrics::TextTable::num(s.mean, precision),
                 std::to_string(s.outliers_hi)});
}

// "mean [lo, hi]" with a 95% bootstrap CI over the samples.
inline std::string mean_with_ci(const std::vector<double>& samples,
                                int precision = 2) {
  const auto ci = metrics::bootstrap_mean_ci(samples);
  return metrics::TextTable::num(ci.mean, precision) + " [" +
         metrics::TextTable::num(ci.lo, precision) + ", " +
         metrics::TextTable::num(ci.hi, precision) + "]";
}

inline metrics::TextTable summary_table(const std::string& value_name) {
  return metrics::TextTable{
      {value_name, "n", "min", "q1", "median", "q3", "max", "mean", "outliers"}};
}

// CDF series printed at fixed evaluation points.
inline void print_cdf_rows(const std::string& label, const metrics::Cdf& cdf,
                           const std::vector<double>& xs,
                           const std::string& x_name) {
  std::cout << "\n[" << label << "]  (" << x_name << " -> CDF)\n";
  for (const double x : xs) {
    std::cout << "  " << metrics::TextTable::num(x, 1) << "\t"
              << metrics::TextTable::num(cdf.fraction_below(x), 4) << "\n";
  }
}

inline experiment::Campaign video_campaign(experiment::Environment env,
                                           pipeline::CcKind cc,
                                           int runs = kFallbackRuns,
                                           std::uint64_t seed = 1000) {
  experiment::Campaign c;
  c.scenario.env = env;
  c.scenario.cc = cc;
  c.scenario.mobility = experiment::Mobility::kAir;
  c.scenario.seed = seed_or(seed);
  c.runs = runs_or(runs);
  c.jobs = options().jobs;
  return c;
}

inline experiment::Campaign probe_campaign(experiment::Environment env,
                                           experiment::Mobility mobility,
                                           int runs = kFallbackRuns,
                                           std::uint64_t seed = 2000) {
  experiment::Campaign c;
  c.scenario.env = env;
  c.scenario.mobility = mobility;
  c.scenario.cc = pipeline::CcKind::kNone;
  c.scenario.probe_interval = sim::Duration::millis(100);
  c.scenario.seed = seed_or(seed);
  c.runs = runs_or(runs);
  c.jobs = options().jobs;
  return c;
}

}  // namespace rpv::bench
