// rpv_trace — run a measurement scenario and export its traces as CSVs,
// the simulator's counterpart to the paper's released dataset and parsing
// scripts; or pretty-print a recorded rpv::obs event timeline.
//
//   $ rpv_trace <out_dir> [urban|rural-p1|rural-p2] [gcc|scream|static] [seed]
//               [--observe]
//   $ rpv_trace events <file.jsonl> [--component C] [--kind K]
//               [--from SEC] [--to SEC]
//
// The flight form accepts `rural` as an alias of `rural-p1`. Any other
// environment or CC name, a seed that is not a decimal integer, or an extra
// argument prints the usage text and exits with code 2.
//
// The `events` form reads an events.jsonl written by an observed run
// (Scenario::observe / rpv_campaign --observe) and renders one line per
// event, so a Fig.-8-style handover/stall timeline can be reconstructed from
// the recording alone — no re-simulation. Components cover every layer that
// publishes, including the 3-way bonding paths (`--component sat` isolates
// satellite pass handovers and obstruction/rain-fade windows).
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "obs/recorder.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace rpv;

constexpr const char* kUsage =
    "usage: rpv_trace <out_dir> [urban|rural-p1|rural-p2] "
    "[gcc|scream|static] [seed] [--observe]\n"
    "       rpv_trace events <file.jsonl> [--component C] "
    "[--kind K] [--from SEC] [--to SEC]\n";

int usage_error(const std::string& what) {
  std::cerr << "rpv_trace: " << what << "\n" << kUsage;
  return 2;
}

int run_events(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: rpv_trace events <file.jsonl> [--component C] "
                 "[--kind K] [--from SEC] [--to SEC]\n";
    return 2;
  }
  const std::string path = argv[2];
  std::optional<obs::Component> component;
  std::optional<obs::EventKind> kind;
  std::optional<double> from_sec;
  std::optional<double> to_sec;
  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--component") {
        const auto name = value_of(i, arg);
        component = obs::component_from_name(name);
        if (!component) {
          std::cerr << "unknown component '" << name << "' (one of:";
          for (int c = 0; c < obs::kComponentCount; ++c) {
            std::cerr << " "
                      << obs::component_name(static_cast<obs::Component>(c));
          }
          std::cerr << ")\n";
          return 2;
        }
      } else if (arg == "--kind") {
        const auto name = value_of(i, arg);
        kind = obs::event_kind_from_name(name);
        if (!kind) {
          std::cerr << "unknown event kind '" << name << "' (one of:";
          for (int k = 0; k < obs::kEventKindCount; ++k) {
            std::cerr << " "
                      << obs::event_kind_name(static_cast<obs::EventKind>(k));
          }
          std::cerr << ")\n";
          return 2;
        }
      } else if (arg == "--from") {
        from_sec = std::stod(value_of(i, arg));
      } else if (arg == "--to") {
        to_sec = std::stod(value_of(i, arg));
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }

  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<obs::Event> events;
  try {
    events = obs::read_jsonl(text.str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::size_t shown = 0;
  for (const auto& e : events) {
    if (component && e.component != *component) continue;
    if (kind && e.kind != *kind) continue;
    const double t = static_cast<double>(e.t.us()) / 1e6;
    if (from_sec && t < *from_sec) continue;
    if (to_sec && t > *to_sec) continue;
    std::cout << obs::describe(e) << "\n";
    ++shown;
  }
  std::cerr << shown << " of " << events.size() << " events\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpv;
  if (argc >= 2 && std::string{argv[1]} == "events") {
    return run_events(argc, argv);
  }
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string dir = argv[1];

  // Positional form, with --observe allowed anywhere after <out_dir>.
  std::vector<std::string> positional;
  bool observe = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--observe") {
      observe = true;
    } else {
      positional.push_back(arg);
    }
  }

  experiment::Scenario s;
  s.observe = observe;
  if (positional.size() > 3) {
    return usage_error("unexpected argument '" + positional[3] + "'");
  }
  if (!positional.empty()) {
    const std::string& env = positional[0];
    using experiment::Environment;
    if (env == "urban") s.env = Environment::kUrban;
    else if (env == "rural-p1" || env == "rural") s.env = Environment::kRuralP1;
    else if (env == "rural-p2") s.env = Environment::kRuralP2;
    else return usage_error("unknown environment '" + env + "'");
  }
  if (positional.size() > 1) {
    const std::string& cc = positional[1];
    if (cc == "gcc") s.cc = pipeline::CcKind::kGcc;
    else if (cc == "scream") s.cc = pipeline::CcKind::kScream;
    else if (cc == "static") s.cc = pipeline::CcKind::kStatic;
    else return usage_error("unknown congestion controller '" + cc + "'");
  }
  if (positional.size() > 2) {
    const std::string& seed = positional[2];
    const char* end = seed.data() + seed.size();
    const auto [ptr, ec] = std::from_chars(seed.data(), end, s.seed);
    if (ec != std::errc{} || ptr != end) {
      return usage_error("bad seed '" + seed + "'");
    }
  }

  std::cerr << "Running " << experiment::environment_name(s.env) << "/"
            << pipeline::cc_name(s.cc) << " flight (seed " << s.seed << ")...\n";
  const auto report = experiment::run_scenario(s);

  const std::string prefix = experiment::environment_name(s.env) + "-" +
                             pipeline::cc_name(s.cc) + "-" +
                             std::to_string(s.seed);
  const auto written = trace::export_session(report, dir, prefix);
  if (written.empty()) {
    std::cerr << "error: could not write traces to " << dir << "\n";
    return 1;
  }
  for (const auto& f : written) std::cout << f << "\n";
  if (observe) {
    const std::string events_path = dir + "/" + prefix + "_events.jsonl";
    if (!obs::write_jsonl(events_path, report.events)) {
      std::cerr << "error: could not write " << events_path << "\n";
      return 1;
    }
    std::cout << events_path << "\n";
  }
  return 0;
}
